"""Count the code lines of each module of src/vikit and their total.

A code line holds at least one token that is not a comment; blank lines,
comment-only lines and the lines of docstrings (the string that opens a
module, class or function body) do not count. A line that continues a
statement across brackets counts, as does every line of a multi-line
string that is not a docstring.

    python tools/code_lines.py [directory] [--against REV]

The directory defaults to src/vikit next to this script's parent. With
--against, each module is also read at the git revision REV (`git show
REV:<path>`), and the table gives its count there, its count now and the
difference; a module that exists on one side only counts 0 on the other.
A directory that does not exist or holds no .py file, and a revision git
cannot read there, are usage errors (exit 2) that name it.
"""

from __future__ import annotations

import argparse
import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(source: str) -> set:
    """Line numbers of every docstring of the module."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in a module's source."""
    docstrings = _docstring_lines(source)
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def _git(root: Path, *args: str) -> str:
    """git's standard output, run in root; a failing command raises."""
    return subprocess.run(["git", *args], cwd=root, capture_output=True, text=True,
                          check=True).stdout


def counts_at(root: Path, rev: str) -> dict:
    """{module file name: code lines} of the modules in root at revision
    rev; paths are relative to root, as `git show REV:./path` reads them."""
    names = _git(root, "ls-tree", "--name-only", rev, "./").split()
    return {name: code_lines(_git(root, "show", f"{rev}:./{name}"))
            for name in names if name.endswith(".py")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Count code lines per module.")
    parser.add_argument("directory", nargs="?",
                        default=Path(__file__).resolve().parent.parent / "src" / "vikit")
    parser.add_argument("--against", metavar="REV",
                        help="also count each module at this git revision")
    args = parser.parse_args(argv)
    root = Path(args.directory)
    if not root.is_dir():
        parser.error(f"{root} is not a directory")
    now = {path.name: code_lines(path.read_text()) for path in sorted(root.glob("*.py"))}
    if not now:
        parser.error(f"{root} holds no .py file")
    if args.against is None:
        for name, n in now.items():
            print(f"{n:6d}  {name}")
        print(f"{sum(now.values()):6d}  total")
        return 0
    try:
        before = counts_at(root, args.against)
    except subprocess.CalledProcessError as exc:
        parser.error(f"git cannot read revision {args.against} in {root}: {exc.stderr.strip()}")
    print(f"{args.against[:10]:>10}  {'now':>6}  {'delta':>6}")
    for name in sorted(before.keys() | now.keys()):
        a, b = before.get(name, 0), now.get(name, 0)
        print(f"{a:10d}  {b:6d}  {b - a:+6d}  {name}")
    a, b = sum(before.values()), sum(now.values())
    print(f"{a:10d}  {b:6d}  {b - a:+6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
