"""Line-level convention checkers clang-tidy cannot express (or
that must run without any LLVM tooling installed)."""

import re
from pathlib import Path

from ..core import Finding, register, strip_comments_and_strings

BARE_ASSERT = re.compile(r"(?<![\w:])assert\s*\(")
BANNED_RAND = re.compile(
    r"(?<![\w:])(?:std::)?(?:rand|srand|rand_r)\s*\(")
RAW_STDERR = re.compile(r"(?:std::)?v?fprintf\s*\(\s*stderr\b")
RAW_GETENV = re.compile(r"(?<![\w:])(?:std::)?getenv\s*\(")

# The only files in src/ allowed to write stderr directly: the
# logging sink itself and the throttled progress reporter.
STDERR_ALLOWLIST = {
    Path("src/common/logging.cc"),
    Path("src/common/progress.cc"),
}

# The only file allowed to call getenv: the env-knob wrapper itself.
GETENV_ALLOWLIST = {
    Path("src/common/env.cc"),
}

RAW_SOCKET_IO = re.compile(
    r"(?<![\w.>])(?:::)?(?:read|write|recv|send|readv|writev|"
    r"recvmsg|sendmsg)\s*\(")

# Service files exempt from the deadline-IO rule: protocol.cc
# implements the deadline wrappers themselves, and worker.cc talks to
# its forked worker over a pipe it owns end to end (bounded by the
# cell timeout, not a connection deadline).
CONN_DEADLINE_ALLOWLIST = {
    Path("src/service/protocol.cc"),
    Path("src/service/worker.cc"),
}

# Calls that create an fd a child could inherit, or a child itself.
# The lookbehind skips members and qualified names (rng.fork(),
# Foo::accept()) but not the global-scope spelling ::socket().
BARE_FD = re.compile(
    r"(?<![\w.>:])(?:::)?(?:pipe2?|socket|socketpair|accept4?|v?fork|"
    r"posix_spawnp?)\s*\(")

# The one service file allowed to make those calls: the helper that
# creates every socket close-on-exec and spawns every worker.
BARE_FD_ALLOWLIST = {
    Path("src/service/fd_hygiene.cc"),
}


# An include of an x86 vector-intrinsics header (<emmintrin.h>,
# <immintrin.h>, ...), and a test of a target SIMD macro.
SIMD_INCLUDE = re.compile(r"^\s*#\s*include\s*[<\"]\w*mmintrin\.h[>\"]")
SIMD_MACRO = re.compile(r"\b__(?:SSE\d*(?:_\d)?|SSSE3|AVX\w*)__\b")

# The one file allowed vector intrinsics: each kernel there sits
# beside its scalar fallback and is tested by tests/test_byte_scan.cc.
SIMD_HOME = Path("src/common/byte_scan.hh")

# A byte splat by the intrinsic that GCC can build through the stack.
BYTE_SPLAT = re.compile(r"(?<![\w.>])_mm_set1_epi8\s*\(")

# A call that renames, truncates or syncs a file.  The lookbehind
# skips members and longer names (fs.rename(), do_fsync()) but not
# qualified spellings (::fsync(), std::filesystem::rename()).
DURABLE_CALL = re.compile(
    r"(?<![\w.>])(?:rename|f?truncate|fsync|fdatasync)\s*\(")

# The one file allowed those calls: the sealed journal and the atomic
# write, each tested by tests/test_durable_file.cc.
DURABLE_HOME = Path("src/common/durable_file.cc")

# A class deriving from ReplacementPolicy; group 2 is "final" if
# present.  Spans lines, so it runs over the whole comment-stripped
# file.
POLICY_SUBCLASS = re.compile(
    r"\b(?:class|struct)\s+(\w+)(\s+final)?\s*:\s*"
    r"(?:(?:public|protected|private)\s+)?(?:::)?(?:gllc::)?"
    r"ReplacementPolicy\b")


@register
class BareAssert:
    """GLLC_ASSERT survives NDEBUG and honours -DGLLC_ASSERTS=OFF;
    a bare assert() silently vanishes from release builds."""

    name = "bare-assert"
    description = ("bare assert(); use GLLC_ASSERT / GLLC_ASSERT_MSG "
                   "(common/logging.hh)")

    def check_file(self, ctx):
        for lineno, line in enumerate(ctx.code_lines, start=1):
            for match in BARE_ASSERT.finditer(line):
                # static_assert survives the (?<![\w:]) guard only
                # when written "static_assert"; re-check to be safe.
                if line[: match.start()].rstrip().endswith("static"):
                    continue
                yield Finding(
                    self.name, str(ctx.rel), lineno,
                    "bare assert(); use GLLC_ASSERT / GLLC_ASSERT_MSG "
                    "from common/logging.hh")


@register
class BannedRand:
    """All randomness flows through gllc::Rng so experiments are
    reproducible from seeds."""

    name = "banned-rand"
    description = ("std::rand/srand/rand_r; use gllc::Rng "
                   "(common/rng.hh)")

    def check_file(self, ctx):
        for lineno, line in enumerate(ctx.code_lines, start=1):
            if BANNED_RAND.search(line):
                yield Finding(
                    self.name, str(ctx.rel), lineno,
                    "std::rand/srand; use gllc::Rng (common/rng.hh) "
                    "so runs are seed-reproducible")


@register
class RawStderr:
    """Diagnostics go through warn()/note()/panic()/fatal() or the
    shared ProgressMeter so they stay greppable and tagged."""

    name = "raw-stderr"
    description = ("raw fprintf(stderr) in src/; use logging.hh or "
                   "the progress reporter")

    def check_file(self, ctx):
        if ctx.rel.parts[0] != "src" or ctx.rel in STDERR_ALLOWLIST:
            return
        for lineno, line in enumerate(ctx.code_lines, start=1):
            if RAW_STDERR.search(line):
                yield Finding(
                    self.name, str(ctx.rel), lineno,
                    "raw fprintf(stderr); use warn()/note() "
                    "(common/logging.hh) or the progress reporter")


@register
class ConnDeadline:
    """A slow or dead client must never pin a connection thread: all
    client-socket IO in the service layer goes through the
    deadline-bounded wrappers (readFrame/writeFrame with timeout_ms,
    readSomeDeadline/writeAllDeadline), never raw read/write/recv/
    send.  One unbounded call is a slowloris foothold."""

    name = "conn-deadline"
    description = ("raw socket IO in src/service/; use the deadline "
                   "wrappers from service/protocol.hh")

    def check_file(self, ctx):
        if len(ctx.rel.parts) < 2 or ctx.rel.parts[:2] != (
                "src", "service"):
            return
        if ctx.rel in CONN_DEADLINE_ALLOWLIST or ctx.is_header:
            return
        for lineno, line in enumerate(ctx.code_lines, start=1):
            if RAW_SOCKET_IO.search(line):
                yield Finding(
                    self.name, str(ctx.rel), lineno,
                    "raw socket IO in the service layer; use the "
                    "deadline-bounded helpers in service/protocol.hh "
                    "(readFrame/writeFrame with timeout_ms, "
                    "readSomeDeadline/writeAllDeadline) so a slow "
                    "client cannot pin this thread")


@register
class BareFd:
    """The daemon forks workers from concurrent shard threads; any fd
    created without close-on-exec leaks into whichever worker forks
    next, and a leaked pipe end can keep a sibling from ever seeing
    EOF.  So src/service/ creates sockets, pipes and children only
    through service/fd_hygiene.hh."""

    name = "bare-fd"
    description = ("bare pipe/socket/accept/fork in src/service/; use "
                   "the helpers in service/fd_hygiene.hh")

    def check_file(self, ctx):
        if len(ctx.rel.parts) < 2 or ctx.rel.parts[:2] != (
                "src", "service"):
            return
        if ctx.rel in BARE_FD_ALLOWLIST:
            return
        for lineno, line in enumerate(ctx.code_lines, start=1):
            match = BARE_FD.search(line)
            if match:
                yield Finding(
                    self.name, str(ctx.rel), lineno,
                    f"bare {match.group(0).strip(':( ')}() in the "
                    "service layer; use openStreamSocket/"
                    "acceptConnection/spawnPiped (service/"
                    "fd_hygiene.hh) so no fd leaks into a worker")


@register
class PolicyFinal:
    """Replay instantiates the LLC access path on each concrete
    policy class (analysis/policy_types.hh).  Only a final class lets
    the compiler bind its hooks statically and inline the bodies in
    its header; a non-final policy silently costs a virtual call per
    hook, or is missing from the dispatch list altogether."""

    name = "policy-final"
    description = ("ReplacementPolicy subclass in src/ not declared "
                   "final")

    def check_file(self, ctx):
        if ctx.rel.parts[0] != "src":
            return
        for match in POLICY_SUBCLASS.finditer(ctx.code):
            if match.group(2):
                continue
            lineno = ctx.code.count("\n", 0, match.start()) + 1
            yield Finding(
                self.name, str(ctx.rel), lineno,
                f"policy class {match.group(1)} is not final; declare "
                "it final and list it in ConcretePolicies "
                "(analysis/policy_types.hh) so replay calls its hooks "
                "statically")


# The cell fault sites, drawn only by the shared cell-attempt policy.
CELL_FAULT_SITE = re.compile(r"\bFaultSite::Cell(?:Throw|Delay)\b")

# analysis/cell_attempts.cc draws them; common/fault.cc is the site
# registry that names every site.
CELL_FAULT_SITE_ALLOWLIST = {
    Path("src/analysis/cell_attempts.cc"),
    Path("src/common/fault.cc"),
}


@register
class CellFaultSite:
    """Both sweep executors (the in-process engine and the gllcd
    workers) must inject cell.throw and cell.delay with the same keyed
    draws, or GLLC_FAULT fails different cells depending on where a
    sweep runs.  So the draws live once, in injectCellFaults()
    (analysis/cell_attempts.hh); a second copy is how the two drifted
    apart before."""

    name = "cell-fault-site"
    description = ("cell.throw/cell.delay site outside "
                   "analysis/cell_attempts.cc")

    def check_file(self, ctx):
        if ctx.rel.parts[0] != "src" or ctx.rel in CELL_FAULT_SITE_ALLOWLIST:
            return
        for lineno, line in enumerate(ctx.code_lines, start=1):
            match = CELL_FAULT_SITE.search(line)
            if match:
                yield Finding(
                    self.name, str(ctx.rel), lineno,
                    f"{match.group(0)} drawn outside the shared cell "
                    "policy; call injectCellFaults() "
                    "(analysis/cell_attempts.hh) instead")


# The sweep knobs a SweepConfig reads from the environment once, at
# construction; everything else takes them from the SweepJobSpec.
SWEEP_KNOB = re.compile(
    r'"(GLLC_(?:FRAME_WINDOW|CELL_RETRIES|CELL_BACKOFF_MS|'
    r'CELL_TIMEOUT_MS|CHECKPOINT|RESUME))"')

SWEEP_KNOB_HOME = Path("src/analysis/sweep.cc")


@register
class SweepKnobEnv:
    """A sweep's execution knobs live in its SweepJobSpec, which keys
    the gllcd result store and travels to the workers.  A second read
    of GLLC_CHECKPOINT or GLLC_FRAME_WINDOW behind the spec's back is
    how SweepConfig::fromSpec() once ran a different sweep than the
    spec it was given.  So only the SweepConfig constructor
    (analysis/sweep.cc) names these knobs."""

    name = "sweep-knob-env"
    description = ("sweep knob (GLLC_FRAME_WINDOW, GLLC_CELL_*, "
                   "GLLC_CHECKPOINT, GLLC_RESUME) read outside "
                   "analysis/sweep.cc")

    def check_file(self, ctx):
        if ctx.rel.parts[0] != "src" or ctx.rel == SWEEP_KNOB_HOME:
            return
        code = strip_comments_and_strings(ctx.raw, keep_strings=True)
        for lineno, line in enumerate(code.splitlines(), start=1):
            for match in SWEEP_KNOB.finditer(line):
                yield Finding(
                    self.name, str(ctx.rel), lineno,
                    f"{match.group(1)} read outside the SweepConfig "
                    "constructor; take the value from the "
                    "SweepJobSpec (analysis/job_spec.hh)")


@register
class SimdOneHeader:
    """Vector kernels live in common/byte_scan.hh, each beside its
    scalar fallback and covered by its test; an intrinsic elsewhere
    would have neither."""

    name = "simd-one-header"
    description = ("vector intrinsics header or SIMD macro test "
                   "outside common/byte_scan.hh")

    def check_file(self, ctx):
        if ctx.rel == SIMD_HOME:
            return
        for lineno, (raw, code) in enumerate(
                zip(ctx.raw_lines, ctx.code_lines), start=1):
            # Include paths are string-like, so match the raw line of
            # a directive that survived comment stripping.
            if ((code.lstrip().startswith("#")
                 and SIMD_INCLUDE.search(raw))
                    or SIMD_MACRO.search(code)):
                yield Finding(
                    self.name, str(ctx.rel), lineno,
                    "vector intrinsics belong in common/byte_scan.hh, "
                    "beside their scalar fallback and test")


@register
class ByteSplat:
    """Byte splats go through detail::splatByte (common/byte_scan.hh).
    Inlined into the LLC access path at -O3, GCC 12 builds
    _mm_set1_epi8 of a runtime byte by storing the byte to the stack
    and loading it back with a 4-byte movd, a store-to-load forward
    that fails on every call; splatByte stays in registers."""

    name = "byte-splat"
    description = "_mm_set1_epi8 under src/; use detail::splatByte"

    def check_file(self, ctx):
        if ctx.rel.parts[0] != "src":
            return
        for lineno, line in enumerate(ctx.code_lines, start=1):
            if BYTE_SPLAT.search(line):
                yield Finding(
                    self.name, str(ctx.rel), lineno,
                    "_mm_set1_epi8 can splat through the stack; use "
                    "detail::splatByte")


@register
class DurableOneModule:
    """Journals and atomic writes live in common/durable_file.cc:
    one torn-tail trim, one temp-then-rename and one fsync policy.  A
    second copy elsewhere is how the checkpoint, the job journal, the
    result store and the trace cache once each grew their own."""

    name = "durable-one-module"
    description = ("rename/truncate/fsync under src/ outside "
                   "common/durable_file.cc")

    def check_file(self, ctx):
        if ctx.rel.parts[0] != "src" or ctx.rel == DURABLE_HOME:
            return
        for lineno, line in enumerate(ctx.code_lines, start=1):
            match = DURABLE_CALL.search(line)
            if match:
                yield Finding(
                    self.name, str(ctx.rel), lineno,
                    f"{match.group(0).rstrip('( ')}: journals and "
                    "atomic writes go through common/durable_file.hh "
                    "(SealedJournal, writeFileAtomically)")


@register
class RawGetenv:
    """Environment knobs flow through envInt()/envString() and are
    sampled once at construction, never in per-access code."""

    name = "raw-getenv"
    description = "getenv outside src/common/env.cc"

    def check_file(self, ctx):
        if ctx.rel in GETENV_ALLOWLIST:
            return
        for lineno, line in enumerate(ctx.code_lines, start=1):
            if RAW_GETENV.search(line):
                yield Finding(
                    self.name, str(ctx.rel), lineno,
                    "getenv; use envInt()/envString() (common/env.hh) "
                    "and sample the knob once at construction, not "
                    "per access")
