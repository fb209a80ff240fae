"""Print the size of each ``src/`` module: its ``wc -l`` lines and its code-only lines.

    python3 tools/src_size.py [<git-ref>]

Code-only lines hold code: not blank, not only a comment, not part of a docstring.  Given a
git ref, the tool also prints the ref's sizes and the difference, taking the ref's ``src/``
from ``git archive`` into a temporary directory, as ``tools/same_outputs.py`` does.  It writes
nothing inside the repository.  The exit code is 0, or 2 for a ref that git cannot export.
"""

import ast
import io
import subprocess
import sys
import tarfile
import tempfile
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# tokens that are not code: a comment, a line break, indentation
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(text: str) -> int:
    """The number of lines of ``text`` that hold code, docstrings excluded."""
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def sizes(src: Path) -> dict:
    """``{module path under src: (lines, code-only lines)}`` of every ``.py`` file in ``src``."""
    out = {}
    for path in sorted(src.rglob("*.py")):
        text = path.read_text()
        out[path.relative_to(src).as_posix()] = (text.count("\n"), code_lines(text))
    return out


def export(ref: str, root: Path, into: Path) -> Path:
    """The ``src/`` of ``ref`` in the repository at ``root``, extracted under ``into``."""
    tar = subprocess.run(["git", "archive", ref, "src"], cwd=root, check=True,
                         stdout=subprocess.PIPE, stderr=subprocess.DEVNULL).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into, filter="data")
    return into / "src"


def _total(sizes_of: dict) -> tuple:
    return tuple(sum(pair[k] for pair in sizes_of.values()) for k in (0, 1))


def table(ours: dict, theirs: dict | None = None) -> str:
    """One row per module and a total row: lines and code, then the ref's and the change."""
    compare = theirs is not None
    theirs = theirs or {}
    head = f"{'module':<32}{'lines':>7}{'code':>7}"
    if compare:
        head += f"{'ref lines':>11}{'ref code':>10}{'d lines':>9}{'d code':>8}"
    rows = [(m, ours.get(m, (0, 0)), theirs.get(m, (0, 0))) for m in sorted({*ours, *theirs})]
    lines = [head]
    for name, (n, code), (ref_n, ref_code) in rows + [("total", _total(ours), _total(theirs))]:
        line = f"{name:<32}{n:>7}{code:>7}"
        if compare:
            line += f"{ref_n:>11}{ref_code:>10}{n - ref_n:>+9}{code - ref_code:>+8}"
        lines.append(line)
    return "\n".join(lines)


def main(argv=None, root: Path = ROOT) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) > 1:
        print(__doc__, file=sys.stderr)
        return 2
    ours, theirs = sizes(root / "src"), None
    if args:
        with tempfile.TemporaryDirectory(prefix="src-size-") as tmp:
            try:
                theirs = sizes(export(args[0], root, Path(tmp)))
            except subprocess.CalledProcessError:
                print(f"git cannot export {args[0]!r}", file=sys.stderr)
                return 2
    print(table(ours, theirs))
    return 0


if __name__ == "__main__":
    sys.dont_write_bytecode = True  # no __pycache__ inside the repository
    raise SystemExit(main())
