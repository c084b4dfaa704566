"""Checker framework: findings, registry, suppressions, file model.

A checker is an object with

    name         stable kebab-case identifier ("bare-assert")
    description  one-liner for --list-checkers
    check_file(ctx) -> iterable[Finding]     (per-file checkers)
  or
    check_repo(repo) -> iterable[Finding]    (whole-repo checkers)

registered via the @register decorator.  Findings carry a repo-
relative path and 1-based line (0 = whole file, "" path = whole
repo).  A finding on line N is suppressed by a comment on that line
containing `gllc-lint: allow(<checker-name>)`; file-scope findings
(line 0) look for the marker on line 1.  Repo-scope findings are not
suppressible — they describe generated artifacts, not code style.
"""

import dataclasses
import re
from pathlib import Path

# (directory, strip-prefix-for-include-guards); the guard of
# src/cache/rrip.hh is GLLC_CACHE_RRIP_HH, of bench/trace_bench.hh
# is GLLC_BENCH_TRACE_BENCH_HH, and so on.
SOURCE_DIRS = [
    ("src", "src"),
    ("tests", None),
    ("bench", None),
    ("examples", None),
]

CPP_SUFFIXES = {".cc", ".hh", ".cpp", ".hpp", ".h"}
HEADER_SUFFIXES = {".hh", ".hpp", ".h"}

SUPPRESS = re.compile(r"gllc-lint:\s*allow\(([a-z0-9-]+)\)")


@dataclasses.dataclass(frozen=True)
class Finding:
    """One lint finding, JSON-serializable via dataclasses.asdict."""

    checker: str
    path: str  # repo-relative, "" for repo-scope findings
    line: int  # 1-based; 0 = file-scope
    message: str

    def render(self):
        if not self.path:
            return f"[{self.checker}] {self.message}"
        where = f"{self.path}:{self.line}" if self.line else self.path
        return f"{where}: [{self.checker}] {self.message}"


class FileContext:
    """One source file as the per-file checkers see it."""

    def __init__(self, root, path, strip_prefix):
        self.root = root
        self.path = path
        self.rel = path.relative_to(root)
        self.strip_prefix = strip_prefix
        self.raw = path.read_text(encoding="utf-8")
        self.code = strip_comments_and_strings(self.raw)
        self.raw_lines = self.raw.splitlines()
        self.code_lines = self.code.splitlines()

    @property
    def is_header(self):
        return self.path.suffix in HEADER_SUFFIXES


class RepoContext:
    """The whole checked file set, for cross-file checkers."""

    def __init__(self, root, files):
        self.root = root
        self.files = files


_REGISTRY = {}


def register(checker):
    """Class decorator: instantiate and register a checker."""
    instance = checker()
    if instance.name in _REGISTRY:
        raise ValueError(f"duplicate checker {instance.name}")
    _REGISTRY[instance.name] = instance
    return checker


def all_checkers():
    """Registered checkers, sorted by name for stable output."""
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


def get_checker(name):
    return _REGISTRY[name]


def walk_files(root):
    """Yield FileContexts for every checked source file, sorted."""
    for directory, strip_prefix in SOURCE_DIRS:
        base = root / directory
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix in CPP_SUFFIXES:
                yield FileContext(root, path, strip_prefix)


def suppressed(finding, contexts_by_rel):
    """True when the finding's line carries its allow() marker."""
    ctx = contexts_by_rel.get(finding.path)
    if ctx is None:
        return False
    line = finding.line if finding.line else 1
    if line > len(ctx.raw_lines):
        return False
    for match in SUPPRESS.finditer(ctx.raw_lines[line - 1]):
        if match.group(1) == finding.checker:
            return True
    return False


def run_checkers(root, checkers):
    """Run @p checkers over the repo; returns (findings, nfiles)."""
    files = list(walk_files(root))
    by_rel = {str(ctx.rel): ctx for ctx in files}
    repo = RepoContext(root, files)
    findings = []
    for checker in checkers:
        if hasattr(checker, "check_file"):
            for ctx in files:
                findings.extend(checker.check_file(ctx))
        if hasattr(checker, "check_repo"):
            findings.extend(checker.check_repo(repo))
    findings = [f for f in findings if not suppressed(f, by_rel)]
    findings.sort(key=lambda f: (f.path, f.line, f.checker, f.message))
    return findings, len(files)


def strip_comments_and_strings(text, keep_strings=False):
    """Blank out comments and string/char literals, keeping line
    structure so reported line numbers stay accurate.  With
    @p keep_strings the literals survive and only comments go."""
    out = []
    i = 0
    n = len(text)
    state = "code"  # code | line | block | dquote | squote
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "dquote"
                out.append(c if keep_strings else " ")
                i += 1
                continue
            if c == "'":
                state = "squote"
                out.append(c if keep_strings else " ")
                i += 1
                continue
            out.append(c)
        elif state == "line":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
        elif state == "block":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append(c if c == "\n" else " ")
        else:  # dquote / squote
            quote = '"' if state == "dquote" else "'"
            if c == "\\":
                out.append(text[i:i + 2] if keep_strings else "  ")
                i += 2
                continue
            if c == quote:
                state = "code"
            out.append(c if keep_strings or c == "\n" else " ")
        i += 1
    return "".join(out)
