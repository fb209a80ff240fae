"""``tools/src_size.py``: lines and code-only lines of each module, and against a git ref."""

import importlib.util
import subprocess
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "src_size.py"
_spec = importlib.util.spec_from_file_location("src_size", TOOL)
src_size = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(src_size)

MODULE = '''"""A module docstring
over two lines."""

import math  # a comment


# a comment line
def f(x):
    """A docstring."""
    text = """a string
that is code"""
    return math.sqrt(x) + len(text)


class C:
    """Docstring of a class."""

    y = 1
'''


def package(root: Path, extra: str = "") -> Path:
    """A package ``pkg`` under ``root/src``: ``pkg/mod.py`` is ``MODULE`` and ``extra``."""
    (root / "src" / "pkg").mkdir(parents=True)
    (root / "src" / "pkg" / "__init__.py").write_text("")
    (root / "src" / "pkg" / "mod.py").write_text(MODULE + extra)
    return root / "src"


def test_code_lines_skip_blanks_comments_and_docstrings_but_not_other_strings():
    # import, def, the two lines of the string, return, class, y = 1
    assert src_size.code_lines(MODULE) == 7
    assert src_size.code_lines("") == 0


def test_sizes_count_every_module_of_a_package(tmp_path):
    assert src_size.sizes(package(tmp_path)) == {
        "pkg/__init__.py": (0, 0), "pkg/mod.py": (MODULE.count("\n"), 7)}


def test_against_a_ref_it_prints_the_ref_and_the_difference(tmp_path, capsys):
    package(tmp_path)
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-C", str(tmp_path)]
    subprocess.run(["git", "init", "-q", str(tmp_path)], check=True)
    subprocess.run([*git, "add", "src"], check=True)
    subprocess.run([*git, "commit", "-q", "-m", "one"], check=True)
    (tmp_path / "src" / "pkg" / "mod.py").write_text(MODULE + "\n\nz = 2  # code\n")
    (tmp_path / "src" / "pkg" / "new.py").write_text("a = 1\n")
    assert src_size.main(["HEAD"], root=tmp_path) == 0
    rows = {line.split()[0]: line.split()[1:] for line in capsys.readouterr().out.splitlines()}
    n = MODULE.count("\n")
    assert rows["pkg/mod.py"] == [str(n + 3), "8", str(n), "7", "+3", "+1"]
    assert rows["pkg/new.py"] == ["1", "1", "0", "0", "+1", "+1"]
    assert rows["total"] == [str(n + 4), "9", str(n), "7", "+4", "+2"]
    assert sorted(p.name for p in tmp_path.iterdir()) == [".git", "src"]  # nothing written
    assert src_size.main(["no-such-ref"], root=tmp_path) == 2


def test_without_a_ref_it_prints_the_sizes_alone(tmp_path, capsys):
    package(tmp_path)
    assert src_size.main([], root=tmp_path) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["module", "lines", "code"]
    assert lines[-1].split() == ["total", str(MODULE.count("\n")), "7"]
