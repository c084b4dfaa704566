"""Unit tests for the gllc_lint checker framework.

Each test builds a miniature repository in a temp directory and runs
one checker over it, so the checkers are exercised against known-bad
and known-good fixtures rather than the live tree (which must stay
clean anyway — CI runs the real linter separately).

Run directly or through ctest (`gllc_lint_unittests`):

    python3 tools/gllc_lint/tests/test_checkers.py
"""

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent.parent))

from gllc_lint import checkers  # noqa: F401, E402
from gllc_lint.checkers import metrics_doc  # noqa: E402
from gllc_lint.core import get_checker, run_checkers  # noqa: E402

GUARDED_HEADER = """\
#ifndef GLLC_{STEM}_HH
#define GLLC_{STEM}_HH
{body}
#endif // GLLC_{STEM}_HH
"""


class LintFixture(unittest.TestCase):
    """A scratch repo the tests populate file by file."""

    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.root = Path(self._tmp.name)
        self.addCleanup(self._tmp.cleanup)

    def write(self, rel, text):
        path = self.root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
        return path

    def header(self, rel, body=""):
        stem = (rel.replace("src/", "", 1)
                .replace("/", "_").replace(".hh", "").upper())
        return self.write(
            rel, GUARDED_HEADER.format(STEM=stem, body=body))

    def run_checker(self, name):
        findings, _ = run_checkers(self.root, [get_checker(name)])
        return findings


class TestConventions(LintFixture):
    def test_bare_assert_flagged_static_assert_not(self):
        self.write("src/a.cc", "void f() { assert(1); }\n"
                               "static_assert(true);\n")
        findings = self.run_checker("bare-assert")
        self.assertEqual([(f.path, f.line) for f in findings],
                         [("src/a.cc", 1)])

    def test_assert_in_comment_or_string_ignored(self):
        self.write("src/a.cc",
                   '// assert(1)\nconst char *s = "assert(2)";\n')
        self.assertEqual(self.run_checker("bare-assert"), [])

    def test_banned_rand(self):
        self.write("src/a.cc", "int x = std::rand();\n")
        findings = self.run_checker("banned-rand")
        self.assertEqual(len(findings), 1)

    def test_raw_stderr_only_in_src_minus_allowlist(self):
        self.write("src/a.cc", 'void f() { fprintf(stderr, "x"); }\n')
        self.write("src/common/logging.cc",
                   'void g() { fprintf(stderr, "x"); }\n')
        self.write("tests/t.cc",
                   'void h() { fprintf(stderr, "x"); }\n')
        findings = self.run_checker("raw-stderr")
        self.assertEqual([f.path for f in findings], ["src/a.cc"])

    def test_raw_getenv(self):
        self.write("src/a.cc", 'char *v = getenv("X");\n')
        self.write("src/common/env.cc", 'char *v = getenv("X");\n')
        findings = self.run_checker("raw-getenv")
        self.assertEqual([f.path for f in findings], ["src/a.cc"])

    def test_conn_deadline_flags_raw_socket_io_in_service(self):
        self.write("src/service/daemon.cc",
                   "void f(int fd) { char c;\n"
                   "    ::read(fd, &c, 1);\n"
                   "    send(fd, &c, 1, 0); }\n")
        findings = self.run_checker("conn-deadline")
        self.assertEqual([(f.path, f.line) for f in findings],
                         [("src/service/daemon.cc", 2),
                          ("src/service/daemon.cc", 3)])

    def test_conn_deadline_allowlists_and_scope(self):
        raw = "void f(int fd) { char c; ::recv(fd, &c, 1, 0); }\n"
        # The wrapper implementation and the pipe-owning worker are
        # exempt; so is everything outside src/service/.
        self.write("src/service/protocol.cc", raw)
        self.write("src/service/worker.cc", raw)
        self.write("src/common/io.cc", raw)
        self.write("tests/t.cc", raw)
        self.assertEqual(self.run_checker("conn-deadline"), [])

    def test_conn_deadline_ignores_methods_and_wrappers(self):
        self.write("src/service/daemon.cc",
                   "void f() { store_.read(k);\n"
                   "    stream->write(b);\n"
                   "    readFrame(fd, payload, 100);\n"
                   "    writeAllDeadline(fd, p, n, 100); }\n")
        self.assertEqual(self.run_checker("conn-deadline"), [])

    def test_bare_fd_flags_fd_creation_in_service(self):
        self.write("src/service/worker.cc",
                   "void f(int l) { int p[2];\n"
                   "    ::pipe2(p, 0);\n"
                   "    pid_t c = fork();\n"
                   "    int s = ::socket(AF_UNIX, SOCK_STREAM, 0);\n"
                   "    int a = accept(l, nullptr, nullptr);\n"
                   "    int b = ::accept4(l, nullptr, nullptr, 0); }\n")
        findings = self.run_checker("bare-fd")
        self.assertEqual([(f.path, f.line) for f in findings],
                         [("src/service/worker.cc", n)
                          for n in (2, 3, 4, 5, 6)])
        self.assertIn("pipe2()", findings[0].message)

    def test_bare_fd_allowlists_and_scope(self):
        raw = "void f() { int p[2]; ::pipe(p); fork(); }\n"
        # The helper itself is exempt; so is everything outside
        # src/service/.
        self.write("src/service/fd_hygiene.cc", raw)
        self.write("src/common/io.cc", raw)
        self.write("tests/t.cc", raw)
        self.assertEqual(self.run_checker("bare-fd"), [])

    def test_bare_fd_ignores_methods_and_helpers(self):
        self.write("src/service/daemon.cc",
                   "void f() { rng.fork(1);\n"
                   "    acceptLoop(fd);\n"
                   "    Daemon::accept(fd);\n"
                   "    int s = openStreamSocket(AF_UNIX);\n"
                   "    int c = acceptConnection(s);\n"
                   "    auto w = spawnPiped(exe, argv);\n"
                   "    // fork() in a comment\n"
                   "    const char *m = \"socket() failed\"; }\n")
        self.assertEqual(self.run_checker("bare-fd"), [])

    def test_policy_final_flags_non_final_policies(self):
        self.write("src/cache/policy/a.hh",
                   "class APolicy : public ReplacementPolicy\n{\n};\n"
                   "struct BPolicy\n    : gllc::ReplacementPolicy {};\n")
        findings = self.run_checker("policy-final")
        self.assertEqual([(f.path, f.line) for f in findings],
                         [("src/cache/policy/a.hh", 1),
                          ("src/cache/policy/a.hh", 4)])
        self.assertIn("APolicy", findings[0].message)

    def test_policy_final_accepts_final_and_ignores_others(self):
        self.write("src/core/b.hh",
                   "class BPolicy final : public ReplacementPolicy {};\n"
                   "class CPolicy final\n"
                   "    : public ReplacementPolicy {};\n"
                   "class Other : public ReplacementPolicyFactory {};\n"
                   "// class D : public ReplacementPolicy\n")
        # Test fakes and examples outside src/ need not be final.
        self.write("tests/t.cc",
                   "class Fake : public ReplacementPolicy {};\n")
        self.write("examples/e.cpp",
                   "class Pin : public ReplacementPolicy {};\n")
        self.assertEqual(self.run_checker("policy-final"), [])

    def test_cell_fault_site_flags_second_copies(self):
        self.write("src/service/worker.cc",
                   "void f(std::uint64_t k) {\n"
                   "    if (faultFires(FaultSite::CellDelay, k)) {}\n"
                   "    throwInjectedFault(FaultSite::CellThrow); }\n")
        findings = self.run_checker("cell-fault-site")
        self.assertEqual([(f.path, f.line) for f in findings],
                         [("src/service/worker.cc", 2),
                          ("src/service/worker.cc", 3)])
        self.assertIn("FaultSite::CellDelay", findings[0].message)

    def test_cell_fault_site_allows_the_policy_and_registry(self):
        draw = "void f() { faultFires(FaultSite::CellThrow, 1); }\n"
        self.write("src/analysis/cell_attempts.cc", draw)
        self.write("src/common/fault.cc",
                   "case FaultSite::CellDelay: return \"cell.delay\";\n")
        # Other sites, comments and code outside src/ pass.
        self.write("src/service/daemon.cc",
                   "void g() { faultFires(FaultSite::WorkerCrash);\n"
                   "    // FaultSite::CellThrow in a comment\n"
                   "    FaultSite::CellThrown; }\n")
        self.write("tests/t.cc", draw)
        self.assertEqual(self.run_checker("cell-fault-site"), [])

    def test_sweep_knob_env_flags_reads_outside_the_constructor(self):
        self.write("src/service/worker.cc",
                   "unsigned w = envInt(\"GLLC_FRAME_WINDOW\", 0);\n"
                   "std::string p =\n"
                   "    envString(\"GLLC_CHECKPOINT\", \"\");\n")
        findings = self.run_checker("sweep-knob-env")
        self.assertEqual([(f.path, f.line) for f in findings],
                         [("src/service/worker.cc", 1),
                          ("src/service/worker.cc", 3)])
        self.assertIn("GLLC_FRAME_WINDOW", findings[0].message)

    def test_sweep_knob_env_allows_sweep_cc_comments_and_others(self):
        read = "bool r = envInt(\"GLLC_RESUME\", 0) != 0;\n"
        self.write("src/analysis/sweep.cc", read)
        # Comments, other knobs, longer names and code outside src/
        # pass.
        self.write("src/analysis/job_spec.hh",
                   "// GLLC_CELL_RETRIES overrides \"GLLC_RESUME\"\n"
                   "int t = envInt(\"GLLC_THREADS\", 0);\n"
                   "auto x = envInt(\"GLLC_CHECKPOINT_DIR\", 0);\n")
        self.write("tests/t.cc", read)
        self.assertEqual(self.run_checker("sweep-knob-env"), [])

    def test_simd_one_header_flags_intrinsics_elsewhere(self):
        self.write("src/rcache/small_cache.cc",
                   "#include <emmintrin.h>\n"
                   "#  include \"immintrin.h\"\n"
                   "#ifdef __SSE2__\n"
                   "#if defined(__AVX2__) || defined(__SSE4_1__)\n"
                   "#endif\n")
        self.write("tests/t.cc", "#include <xmmintrin.h>\n")
        findings = self.run_checker("simd-one-header")
        self.assertEqual([(f.path, f.line) for f in findings],
                         [("src/rcache/small_cache.cc", 1),
                          ("src/rcache/small_cache.cc", 2),
                          ("src/rcache/small_cache.cc", 3),
                          ("src/rcache/small_cache.cc", 4),
                          ("tests/t.cc", 1)])

    def test_simd_one_header_allows_the_home_comments_and_names(self):
        self.write("src/common/byte_scan.hh",
                   "#ifdef __SSE2__\n#include <emmintrin.h>\n#endif\n")
        # Comments, strings and ordinary names pass.
        self.write("src/cache/rrip.hh",
                   "// SSE2 scan, see <emmintrin.h> and __SSE2__\n"
                   "const char *m = \"__SSE2__\";\n"
                   "int __SSE2__x = kSse2Lanes;\n"
                   "#include \"common/byte_scan.hh\"\n")
        self.assertEqual(self.run_checker("simd-one-header"), [])

    def test_byte_splat_flags_the_intrinsic_under_src(self):
        self.write("src/common/byte_scan.hh",
                   "inline __m128i f(char b) {\n"
                   "    return _mm_set1_epi8(b);\n"
                   "}\n"
                   "__m128i g = _mm_set1_epi8 (0);\n")
        self.write("src/cache/rrip.hh", "auto v = ::_mm_set1_epi8(1);\n")
        # Outside src/, comments, strings and other splats pass.
        self.write("tests/t.cc", "auto v = _mm_set1_epi8(1);\n")
        self.write("src/rcache/small_cache.cc",
                   "// not _mm_set1_epi8(b), see splatByte\n"
                   "const char *m = \"_mm_set1_epi8(\";\n"
                   "auto w = _mm_set1_epi32(1);\n"
                   "auto x = detail::splatByte(b);\n"
                   "auto y = my_mm_set1_epi8(b);\n")
        findings = self.run_checker("byte-splat")
        self.assertEqual(sorted((f.path, f.line) for f in findings),
                         [("src/cache/rrip.hh", 1),
                          ("src/common/byte_scan.hh", 2),
                          ("src/common/byte_scan.hh", 4)])

    def test_durable_one_module_flags_calls_outside_the_home(self):
        self.write("src/service/result_store.cc",
                   "void f() {\n"
                   "    std::rename(a, b);\n"
                   "    ::fsync(fd);\n"
                   "    truncate(p, 0);\n"
                   "    ::ftruncate(fd, 0);\n"
                   "    std::filesystem::rename(a, b);\n"
                   "}\n")
        findings = self.run_checker("durable-one-module")
        self.assertEqual([(f.path, f.line) for f in findings],
                         [("src/service/result_store.cc", n)
                          for n in (2, 3, 4, 5, 6)])

    def test_durable_one_module_allows_the_home_and_non_src(self):
        self.write("src/common/durable_file.cc",
                   "void f() { ::fsync(fd); std::rename(a, b); }\n")
        self.write("tests/t.cc", "void f() { ::fsync(fd); }\n")
        # Comments, strings, members and longer names pass.
        self.write("src/trace/trace_io.cc",
                   "// temp file + rename(2), no fsync()\n"
                   "const char *m = \"truncate(\";\n"
                   "void f() { fs.rename(x); p->fsync(); "
                   "do_fsync(fd); }\n")
        self.assertEqual(self.run_checker("durable-one-module"), [])

    def test_suppression_comment(self):
        self.write(
            "src/a.cc",
            "void f() { assert(1); } // gllc-lint: allow(bare-assert)\n"
            "void g() { assert(2); }\n")
        findings = self.run_checker("bare-assert")
        self.assertEqual([f.line for f in findings], [2])


class TestIncludeGuard(LintFixture):
    def test_correct_guard_passes(self):
        self.header("src/cache/rrip.hh")
        self.assertEqual(self.run_checker("include-guard"), [])

    def test_wrong_guard_name(self):
        self.write("src/a.hh",
                   "#ifndef WRONG_HH\n#define WRONG_HH\n#endif\n")
        findings = self.run_checker("include-guard")
        self.assertIn("expected GLLC_A_HH", findings[0].message)

    def test_pragma_once_rejected(self):
        self.write("src/a.hh", "#pragma once\n")
        findings = self.run_checker("include-guard")
        messages = " ".join(f.message for f in findings)
        self.assertIn("#pragma once", messages)

    def test_missing_guard(self):
        self.write("src/a.hh", "int x;\n")
        findings = self.run_checker("include-guard")
        self.assertIn("missing include guard", findings[0].message)


class TestMetricsDoc(LintFixture):
    CODE = """\
void dump(MetricsRegistry &reg, const std::string &prefix) {
    reg.addCounter("dram.refreshes", 1);
    reg.addCounter(prefix + "ship.fills_dead", 2);
    reg.recordValue(prefix + "table." + key, 3);
    reg.maxGauge("gllcd.queue_depth", 4);
    recordLatencyMs("gllcd.job.e2e_ms", 12.5);
    reg.addCounter(computed);  // no literal: skipped
}
"""

    def test_missing_doc_flagged(self):
        self.write("src/m.cc", self.CODE)
        findings = self.run_checker("metrics-doc")
        self.assertEqual(len(findings), 1)
        self.assertIn("missing", findings[0].message)

    def test_patterns_extracted(self):
        self.write("src/m.cc", self.CODE)
        from gllc_lint.core import RepoContext, walk_files

        repo = RepoContext(self.root, list(walk_files(self.root)))
        patterns = sorted(
            p for p, _ in metrics_doc.extract_metrics(repo))
        self.assertEqual(patterns, [
            "*ship.fills_dead", "*table.*", "dram.refreshes",
            "gllcd.job.e2e_ms", "gllcd.queue_depth"])

    def test_latency_histograms_documented_with_own_kind(self):
        self.write("src/m.cc", self.CODE)
        from gllc_lint.core import RepoContext, walk_files

        repo = RepoContext(self.root, list(walk_files(self.root)))
        kinds = dict(metrics_doc.extract_metrics(repo))
        self.assertIn(("gllcd.job.e2e_ms", "latency"), kinds)

    def test_up_to_date_doc_passes_and_drift_flagged(self):
        self.write("src/m.cc", self.CODE)
        from gllc_lint.core import RepoContext, walk_files

        repo = RepoContext(self.root, list(walk_files(self.root)))
        get_checker("metrics-doc").update(repo)
        self.assertEqual(self.run_checker("metrics-doc"), [])

        # A renamed metric makes the committed doc stale.
        self.write("src/m.cc",
                   self.CODE.replace("dram.refreshes", "dram.blinks"))
        findings = self.run_checker("metrics-doc")
        self.assertEqual(len(findings), 1)
        self.assertIn("stale", findings[0].message)


class TestEnvDoc(LintFixture):
    def test_undocumented_knob_flagged(self):
        self.write("src/e.cc", 'int v = envInt("GLLC_SECRET", 0);\n')
        self.write("README.md", "nothing here\n")
        findings = self.run_checker("env-doc")
        self.assertEqual(len(findings), 1)
        self.assertIn("GLLC_SECRET", findings[0].message)
        self.assertEqual(findings[0].path, "src/e.cc")

    def test_inline_mention_counts_as_documented(self):
        self.write("src/e.cc", 'int v = envInt("GLLC_KNOB", 0);\n')
        self.write("README.md", "set `GLLC_KNOB=1` to enable\n")
        self.assertEqual(self.run_checker("env-doc"), [])

    def test_stale_bullet_flagged(self):
        self.write("src/e.cc", 'int v = envInt("GLLC_KNOB", 0);\n')
        self.write("README.md",
                   "* `GLLC_KNOB` — real\n* `GLLC_GONE` — stale\n")
        findings = self.run_checker("env-doc")
        self.assertEqual(len(findings), 1)
        self.assertIn("GLLC_GONE", findings[0].message)
        self.assertEqual(findings[0].path, "README.md")

    def test_wrapped_call_name_on_next_line(self):
        self.write("src/e.cc",
                   'int v = envInt(\n    "GLLC_WRAPPED", 0);\n')
        self.write("README.md", "docs\n")
        findings = self.run_checker("env-doc")
        self.assertIn("GLLC_WRAPPED", findings[0].message)


class TestIncludeCycle(LintFixture):
    def test_acyclic_graph_passes(self):
        self.header("src/a.hh", '#include "b.hh"\n')
        self.header("src/b.hh")
        self.assertEqual(self.run_checker("include-cycle"), [])

    def test_two_node_cycle_reported_once(self):
        self.header("src/a.hh", '#include "b.hh"\n')
        self.header("src/b.hh", '#include "a.hh"\n')
        findings = self.run_checker("include-cycle")
        self.assertEqual(len(findings), 1)
        self.assertIn("a.hh -> b.hh -> a.hh", findings[0].message)

    def test_self_include_reported(self):
        self.header("src/a.hh", '#include "a.hh"\n')
        findings = self.run_checker("include-cycle")
        self.assertEqual(len(findings), 1)

    def test_missing_target_ignored(self):
        self.header("src/a.hh", '#include "not_in_repo.hh"\n')
        self.assertEqual(self.run_checker("include-cycle"), [])


class TestCli(unittest.TestCase):
    """End-to-end: `python3 -m gllc_lint` against the real repo."""

    TOOLS = Path(__file__).resolve().parents[2]

    def lint(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "gllc_lint", *args],
            cwd=self.TOOLS, capture_output=True, text=True,
            check=False)

    def test_json_output_schema(self):
        proc = self.lint("--json", "-")
        document = json.loads(proc.stdout)
        self.assertEqual(document["schema"], "gllc-lint-v1")
        self.assertGreater(document["files_checked"], 0)
        self.assertIn("include-cycle", document["checkers"])
        for finding in document["findings"]:
            self.assertIn("checker", finding)
            self.assertIn("path", finding)
            self.assertIn("line", finding)
            self.assertIn("message", finding)

    def test_unknown_checker_is_usage_error(self):
        proc = self.lint("--checkers", "no-such")
        self.assertEqual(proc.returncode, 2)


if __name__ == "__main__":
    unittest.main()
