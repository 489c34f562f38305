"""Single-token mutation sweep of one fracspec module.

    python tools/mutation_sweep.py MODULE

MODULE is a module name of ``src/fracspec`` (``evolution``) or its path. Every site is one
token and one replacement:

  * a comparison swapped: ``<`` and ``<=``, ``>`` and ``>=``, ``==`` and ``!=``,
    ``is`` and ``is not``, ``in`` and ``not in``;
  * an arithmetic operator swapped, plain or augmented: ``+`` and ``-``, ``*`` and ``/``;
  * a boolean swapped: ``and`` and ``or``, ``True`` and ``False``;
  * a nonzero float literal scaled by 2 or by 1/2, two sites per literal, so that a
    tolerance or a constant moves by as much as its documented purpose must notice.

Each mutant is written into a temporary copy of the checkout (its tracked and unignored
files), never into the checkout itself, and runs against all of ``tests/`` with ``-x -q --ff``:
the test that killed the previous mutant runs first, since neighbouring sites tend to fall to
the same test. The copy's tests and subprocesses import the copy's ``src``. A mutant is killed
when the tests fail or run past ``TIMEOUT_S``, and survives when they pass. Every site runs.
The report lists the killed and survived counts and each survivor's line and mutation.
SIGTERM stops a sweep as an exception would: the running tests are killed and the copy is
removed.
"""

import argparse
import ast
import bisect
import io
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import tokenize
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fracspec"
TIMEOUT_S = 600.0  # per test run; tests/ takes about 30 s when it all passes

SWAPS = {
    "<": "<=", "<=": "<", ">": ">=", ">=": ">", "==": "!=", "!=": "==",
    "is": "is not", "is not": "is", "in": "not in", "not in": "in",
    "+": "-", "-": "+", "*": "/", "/": "*", "+=": "-=", "-=": "+=", "*=": "/=", "/=": "*=",
    "and": "or", "or": "and",
}
ARITHMETIC = (ast.Add, ast.Sub, ast.Mult, ast.Div)


@dataclass(frozen=True)
class Site:
    line: int
    col: int  # from 1, in characters
    start: int  # character offsets into the source
    end: int
    old: str
    new: str

    def describe(self) -> str:
        return f"line {self.line}:{self.col}: `{self.old}` -> `{self.new}`"

    def apply(self, source: str) -> str:
        return source[:self.start] + self.new + source[self.end:]


class _Locator:
    """Character offsets of AST positions and the operator tokens between two of them."""

    def __init__(self, source: str):
        self.lines = source.splitlines(keepends=True)
        self.starts = [0]
        for line in self.lines:
            self.starts.append(self.starts[-1] + len(line))
        self.tokens, self.strings = [], []
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            span = (self.offset(*tok.start, chars=True), self.offset(*tok.end, chars=True))
            if tok.type == tokenize.STRING:
                self.strings.append(span)
            elif tok.type in (tokenize.OP, tokenize.NAME):
                self.tokens.append((*span, tok.string))

    def offset(self, line: int, col: int, chars: bool = False) -> int:
        """Offset of (line, col); an AST col counts UTF-8 bytes, a token's characters."""
        text = self.lines[line - 1] if line <= len(self.lines) else ""
        if not chars:
            col = len(text.encode()[:col].decode())
        return self.starts[line - 1] + col

    def span(self, node: ast.AST) -> tuple[int, int]:
        return (self.offset(node.lineno, node.col_offset),
                self.offset(node.end_lineno, node.end_col_offset))

    def position(self, start: int) -> tuple[int, int]:
        """(line, column) of an offset, both counted from 1."""
        line = bisect.bisect_right(self.starts, start)
        return line, start - self.starts[line - 1] + 1

    def in_string(self, start: int) -> bool:
        """Whether an offset lies inside a string token (an f-string's expressions do)."""
        return any(a <= start < b for a, b in self.strings)

    def operator(self, after: int, before: int) -> tuple[int, int, str] | None:
        """The operator tokens between two offsets, parentheses left out."""
        i = bisect.bisect_left(self.tokens, (after,))
        toks = []
        for tok in self.tokens[i:]:
            if tok[1] > before:
                break
            if tok[2] not in ("(", ")"):
                toks.append(tok)
        if not toks:
            return None
        return toks[0][0], toks[-1][1], " ".join(t[2] for t in toks)


def enumerate_sites(source: str) -> list[Site]:
    """Every single-token mutant of ``source``, in source order."""
    loc = _Locator(source)
    sites = []

    def swap(found):
        if found and found[2] in SWAPS and not loc.in_string(found[0]):
            sites.append(Site(*loc.position(found[0]), *found, SWAPS[found[2]]))

    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ARITHMETIC):
            swap(loc.operator(loc.span(node.left)[1], loc.span(node.right)[0]))
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ARITHMETIC):
            swap(loc.operator(loc.span(node.target)[1], loc.span(node.value)[0]))
        elif isinstance(node, ast.Compare):
            for left, right in zip([node.left, *node.comparators], node.comparators):
                swap(loc.operator(loc.span(left)[1], loc.span(right)[0]))
        elif isinstance(node, ast.BoolOp):
            for left, right in zip(node.values, node.values[1:]):
                swap(loc.operator(loc.span(left)[1], loc.span(right)[0]))
        elif isinstance(node, ast.Constant) and type(node.value) in (bool, float):
            start, end = loc.span(node)
            if loc.in_string(start):
                continue
            old = source[start:end]
            if isinstance(node.value, bool):
                sites.append(Site(*loc.position(start), start, end, old, str(not node.value)))
            elif node.value != 0.0:
                for scaled in (node.value * 2.0, node.value / 2.0):
                    sites.append(Site(*loc.position(start), start, end, old, repr(scaled)))
    return sorted(sites, key=lambda s: (s.start, s.new))


def _copy_checkout(dest: Path) -> None:
    listed = subprocess.run(["git", "ls-files", "-z", "--cached", "--others",
                             "--exclude-standard"], cwd=ROOT, check=True,
                            capture_output=True).stdout.decode().split("\0")
    for name in filter(None, listed):
        src = ROOT / name
        if src.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def _run_tests(copy: Path) -> str:
    """'passed', 'failed' or 'timeout' for the copy's tests."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "--ff", "tests"]
    try:
        proc = subprocess.run(cmd, cwd=copy, env=env, capture_output=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "passed" if proc.returncode == 0 else "failed"


def _module_path(module: str) -> Path:
    path = Path(module)
    return (path if path.suffix == ".py" else PACKAGE / f"{module}.py").resolve()


def _unwind(signum, frame):
    """Unwind on SIGTERM: ``subprocess.run`` kills its child, and the copy is removed."""
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _unwind)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("module", help="module name of src/fracspec, or its path")
    args = parser.parse_args(argv)

    path = _module_path(args.module)
    relative = path.relative_to(ROOT)
    source = path.read_text()
    sites = enumerate_sites(source)
    print(f"{relative}: {len(sites)} sites against tests/", flush=True)

    with tempfile.TemporaryDirectory(prefix="mutation_sweep_") as tmp:
        copy = Path(tmp)
        _copy_checkout(copy)
        target = copy / relative
        if _run_tests(copy) != "passed":
            print("the unmutated copy fails its tests; no mutant can be judged")
            return 2
        survivors, killed = [], 0
        for i, site in enumerate(sites, 1):
            mutant = site.apply(source)
            compile(mutant, str(relative), "exec")
            target.write_text(mutant)
            start = time.monotonic()
            outcome = _run_tests(copy)
            target.write_text(source)
            if outcome == "passed":
                survivors.append(site)
                verdict = "survived"
            else:
                killed += 1
                verdict = "killed (timeout)" if outcome == "timeout" else "killed"
            print(f"[{i}/{len(sites)}] {site.describe()}: {verdict} "
                  f"in {time.monotonic() - start:.1f} s", flush=True)

    print(f"{relative}: killed {killed}, survived {len(survivors)} of {len(sites)}")
    for site in survivors:
        print(f"  survived {site.describe()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
