#!/usr/bin/env python3
"""Detect self-keeping async closure chains (the PR 1 leak class).

The simulator's recursive async idiom allocates a std::function on the
heap and makes it reschedule itself through the event queue:

    auto step = std::make_shared<std::function<void()>>();
    *step = [this, step] {            // BAD: strong self-capture
      ...
      eq_.schedule_after(dt, [step] { (*step)(); });
    };

The lambda stored in *step owns a strong reference to itself, so the
shared_ptr's refcount can never reach zero: every chain leaks its
closure (and everything the closure captures — often the owning object).
The correct idiom captures itself weakly and lets the pending event hold
the only strong reference:

    auto step = std::make_shared<std::function<void()>>();
    *step = [this, wstep = std::weak_ptr<std::function<void()>>(step)] {
      auto step = wstep.lock();       // revive for the next hop
      ...
    };

This checker flags every `*X = [...]` assignment whose capture list
takes a strong copy of X, where X was declared as a
std::make_shared<std::function<...>> chain head. The same leak class
exists for heap-shared harness::SweepCell task thunks
(`auto cell = std::make_shared<harness::SweepCell>(); cell->run = [cell]
{...};`), so make_shared<SweepCell> declarations are chain heads too and
the `X->run = [...]` / `(*X).run = [...]` spellings are checked. The
fan-in latches of sim/latch.h (`auto j = sim::make_latch(n, nullptr);
j->then = [j] {...};`) are chain heads as well, with the `X->then` and
`(*X).then` spellings.

Engines:
  * libclang (used automatically when the python bindings and a matching
    libclang are importable): verifies candidates against the real AST,
    eliminating token-level false positives.
  * regex/tokenizer (always available, the default in minimal
    containers): operates on comment- and string-stripped source. The
    pattern is syntactically narrow enough that this is exact on this
    codebase's idiom.

Usage:
  check_async_captures.py [paths...]   # default: src/ bench/ tests/
  check_async_captures.py --self-test  # run against tests/lint_fixtures
Exit status: 0 clean, 1 findings, 2 usage/internal error.
"""

from __future__ import annotations

import os
import re
import sys
from dataclasses import dataclass

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_DIRS = ("src", "bench", "tests")
FIXTURE_DIR = os.path.join("tests", "lint_fixtures")
CXX_EXTS = (".cc", ".cpp", ".cxx", ".h", ".hpp")


@dataclass
class Finding:
    path: str
    line: int
    var: str
    detail: str

    def __str__(self) -> str:
        return (f"{self.path}:{self.line}: error: lambda assigned to "
                f"'*{self.var}' strongly captures '{self.var}' "
                f"({self.detail}); capture a std::weak_ptr and lock() it "
                f"instead, or the chain keeps itself alive forever")


# ---------------------------------------------------------------------------
# Source preprocessing: blank out comments and string/char literals while
# preserving line structure so reported line numbers stay exact.
# ---------------------------------------------------------------------------

def strip_comments_and_strings(text: str) -> str:
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j < 0 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            out.append("".join(ch if ch == "\n" else " "
                               for ch in text[i:j]))
            i = j
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n:
                if text[j] == "\\":
                    j += 2
                    continue
                if text[j] == quote:
                    j += 1
                    break
                j += 1
            out.append(quote + " " * (j - i - 2) + quote if j - i >= 2
                       else text[i:j])
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


# ---------------------------------------------------------------------------
# Capture-list analysis
# ---------------------------------------------------------------------------

def split_top_level(s: str) -> list[str]:
    """Split a capture list on commas not nested in <>, (), {}, []."""
    parts, depth, start = [], 0, 0
    for i, c in enumerate(s):
        if c in "<({[":
            depth += 1
        elif c in ">)}]":
            depth = max(0, depth - 1)
        elif c == "," and depth == 0:
            parts.append(s[start:i])
            start = i + 1
    parts.append(s[start:])
    return [p.strip() for p in parts if p.strip()]


def strong_capture_of(capture_list: str, var: str) -> str | None:
    """Return a description if `var` is captured by strong copy."""
    for entry in split_top_level(capture_list):
        if entry == var:
            return "implicit copy capture"
        if entry == "&" + var:
            continue  # by-reference: dangling risk, but not this leak class
        m = re.match(r"^(\w+)\s*=\s*(.*)$", entry, re.S)
        if m:
            init = m.group(2).strip()
            if init == var:
                return f"copy-initialized capture '{m.group(1)}'"
            # `w = std::weak_ptr<...>(var)` and friends are the fix, not
            # the bug: `var` appearing inside a call expression is fine
            # unless the call itself is a copy (shared_ptr(var)).
            if re.match(r"^(::)?std\s*::\s*shared_ptr\s*<[^;]*>\s*\(\s*"
                        + re.escape(var) + r"\s*\)$", init):
                return f"shared_ptr copy capture '{m.group(1)}'"
    return None


# ---------------------------------------------------------------------------
# Regex/tokenizer engine
# ---------------------------------------------------------------------------

# Chain heads: shared std::function (the original idiom), shared
# sim::Task (the event queue's native callback type schedules sink),
# shared sim::Fn<Sig> (the move-only callback the stack API uses), a
# shared harness::SweepCell whose `run` thunk can self-capture the same
# way any other shared callable can, or a sim/latch.h fan-in latch (made
# by make_shared or by its sim::make_latch / make_status_latch helper)
# whose `then` continuation can.
_NS = r"(?:(?:::)?kvsim\s*::\s*)?"
DECL_RE = re.compile(
    r"\bauto\s+(\w+)\s*=\s*(?:"
    r"(?:::)?std\s*::\s*make_shared\s*<\s*"
    r"(?:(?:::)?std\s*::\s*function\b"
    r"|" + _NS + r"(?:sim\s*::\s*)?Task\s*>"
    r"|" + _NS + r"(?:sim\s*::\s*)?Fn\s*<"
    r"|" + _NS + r"(?:harness\s*::\s*)?SweepCell\s*>"
    r"|" + _NS + r"(?:sim\s*::\s*)?(?:Status)?Latch\s*>)"
    r"|" + _NS + r"(?:sim\s*::\s*)?make_(?:status_)?latch\s*\()")

# Assignment shapes that store a lambda into the shared callable slot:
# the classic `*step = [...]`, plus the SweepCell task-thunk member and
# the latch continuation, each in arrow and deref-dot spelling.
ASSIGN_RE_TMPLS = (
    r"\*\s*{var}\s*=\s*\[",
    r"\b{var}\s*->\s*(?:run|then)\s*=\s*\[",
    r"\(\s*\*\s*{var}\s*\)\s*\.\s*(?:run|then)\s*=\s*\[",
)


def find_capture_list(text: str, open_bracket: int) -> tuple[str, int] | None:
    """Return (capture list contents, end index) for `[` at open_bracket."""
    depth, i = 0, open_bracket
    while i < len(text):
        if text[i] == "[":
            depth += 1
        elif text[i] == "]":
            depth -= 1
            if depth == 0:
                return text[open_bracket + 1:i], i
        i += 1
    return None


def check_text(path: str, raw: str) -> list[Finding]:
    text = strip_comments_and_strings(raw)
    findings = []
    chain_vars = {}  # name -> decl line
    for m in DECL_RE.finditer(text):
        chain_vars[m.group(1)] = text.count("\n", 0, m.start()) + 1
    for var in chain_vars:
        for tmpl in ASSIGN_RE_TMPLS:
            for am in re.finditer(tmpl.format(var=re.escape(var)), text):
                open_bracket = text.index("[", am.start())
                cap = find_capture_list(text, open_bracket)
                if cap is None:
                    continue
                detail = strong_capture_of(cap[0], var)
                if detail:
                    line = text.count("\n", 0, am.start()) + 1
                    findings.append(Finding(path, line, var, detail))
    return findings


# ---------------------------------------------------------------------------
# Optional libclang verification
# ---------------------------------------------------------------------------

def libclang_available() -> bool:
    try:
        import clang.cindex  # noqa: F401
        clang.cindex.Index.create()
        return True
    except Exception:
        return False


def verify_with_libclang(path: str, findings: list[Finding]) -> list[Finding]:
    """Keep only findings whose variable really is a shared_ptr decl.

    The textual engine is already decl-anchored, so this only removes
    pathological cases (e.g. a same-named variable shadowing the chain
    head with a non-owning type between decl and assignment).
    """
    try:
        import clang.cindex as ci
        index = ci.Index.create()
        tu = index.parse(path, args=["-std=c++20", "-I" + os.path.join(
            REPO_ROOT, "src")])
        shared_ptr_vars = set()
        for cur in tu.cursor.walk_preorder():
            if cur.kind == ci.CursorKind.VAR_DECL and \
                    "shared_ptr" in cur.type.spelling and \
                    ("function" in cur.type.spelling or
                     "Task" in cur.type.spelling or
                     "SweepCell" in cur.type.spelling or
                     "Latch" in cur.type.spelling):
                shared_ptr_vars.add(cur.spelling)
        return [f for f in findings if f.var in shared_ptr_vars]
    except Exception:
        return findings  # fall back to the textual result


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def iter_sources(paths: list[str]):
    for p in paths:
        if os.path.isfile(p):
            yield p
            continue
        for dirpath, dirnames, filenames in os.walk(p):
            dirnames[:] = [d for d in dirnames if d != "lint_fixtures"]
            for fn in sorted(filenames):
                if fn.endswith(CXX_EXTS):
                    yield os.path.join(dirpath, fn)


def run(paths: list[str], use_libclang: bool) -> list[Finding]:
    findings = []
    for path in iter_sources(paths):
        try:
            with open(path, encoding="utf-8", errors="replace") as f:
                raw = f.read()
        except OSError as e:
            print(f"check_async_captures: cannot read {path}: {e}",
                  file=sys.stderr)
            continue
        file_findings = check_text(path, raw)
        if file_findings and use_libclang:
            file_findings = verify_with_libclang(path, file_findings)
        findings.extend(file_findings)
    return findings


def self_test(use_libclang: bool) -> int:
    fixtures = os.path.join(REPO_ROOT, FIXTURE_DIR)
    bad_dir = os.path.join(fixtures, "bad")
    good_dir = os.path.join(fixtures, "good")
    if not (os.path.isdir(bad_dir) and os.path.isdir(good_dir)):
        print(f"check_async_captures: missing fixtures under {fixtures}",
              file=sys.stderr)
        return 2
    failures = 0
    for fn in sorted(os.listdir(bad_dir)):
        if not fn.endswith(CXX_EXTS):
            continue
        path = os.path.join(bad_dir, fn)
        if not run([path], use_libclang):
            print(f"SELF-TEST FAIL: expected a finding in {path}")
            failures += 1
        else:
            print(f"self-test ok (flagged): {fn}")
    for fn in sorted(os.listdir(good_dir)):
        if not fn.endswith(CXX_EXTS):
            continue
        path = os.path.join(good_dir, fn)
        got = run([path], use_libclang)
        if got:
            for f in got:
                print(f"SELF-TEST FAIL (false positive): {f}")
            failures += 1
        else:
            print(f"self-test ok (clean):   {fn}")
    if failures:
        print(f"check_async_captures self-test: {failures} failure(s)")
        return 1
    print("check_async_captures self-test: all fixtures behaved")
    return 0


def main(argv: list[str]) -> int:
    args = [a for a in argv[1:] if not a.startswith("--")]
    flags = {a for a in argv[1:] if a.startswith("--")}
    unknown = flags - {"--self-test", "--no-libclang", "--help"}
    if unknown or "--help" in flags:
        print(__doc__)
        return 0 if "--help" in flags else 2
    use_libclang = "--no-libclang" not in flags and libclang_available()
    if "--self-test" in flags:
        return self_test(use_libclang)
    paths = args or [os.path.join(REPO_ROOT, d) for d in DEFAULT_DIRS]
    findings = run(paths, use_libclang)
    for f in findings:
        print(f)
    if findings:
        print(f"check_async_captures: {len(findings)} self-keeping "
              f"closure chain(s) found", file=sys.stderr)
        return 1
    engine = "libclang" if use_libclang else "tokenizer"
    print(f"check_async_captures: clean ({engine} engine)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
