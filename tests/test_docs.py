"""The README names what the code registers."""

import argparse
import re
from pathlib import Path

from expopt.cli import _build_parser
from expopt.harness.experiments import KINDS

README = Path(__file__).resolve().parents[1] / "README.md"


def registered_in_readme() -> dict:
    """``{kind: names}`` from the README's "Registered algorithms" paragraph.

    The paragraph lists one kind per ``;``-separated part: the part's names
    in backticks, then the kind as the first word of a parenthesis.
    """
    text = README.read_text()
    paragraph = text[text.index("Registered algorithms:") :].split("\n\n")[0]
    listed = {}
    for part in paragraph.split(":", 1)[1].split(";"):
        names, note = part.split("(", 1)
        listed[re.match(r"\w+", note).group()] = tuple(re.findall(r"`(\w+)`", names))
    return listed


def test_readme_names_exactly_the_registered_algorithms_kind_by_kind():
    # KINDS maps each kind to registry.VECTOR_/MATRIX_/ACCELERATED_ALGORITHMS
    assert registered_in_readme() == KINDS


def subcommands_in_readme() -> list:
    """The ``expopt <word>`` lines of the fenced block under "## Benchmark CLI"."""
    text = README.read_text()
    block = text[text.index("## Benchmark CLI") :].split("```")[1]
    return re.findall(r"^expopt (\w+)", block, flags=re.MULTILINE)


def test_readme_names_exactly_the_cli_subcommands():
    (sub,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert subcommands_in_readme() == list(sub.choices)
