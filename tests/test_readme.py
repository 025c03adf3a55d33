"""The README's library tour runs as printed, and its CLI section names every flag."""

from __future__ import annotations

import argparse
import re
from pathlib import Path

from relu_prism.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_tour_runs(capsys):
    (tour,) = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    exec(compile(tour, str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "1.0"  # the accuracy the tour's comment gives
    assert float(lines[-1]) < 1e-9  # the maps are exact


# Flags the CLI section names only to say that they are retired.
RETIRED = {"--seed", "--jacobian-samples", "--jacobian-step"}


def test_cli_section_names_every_flag():
    """A flag added to simulate, titanic or verify is documented; a retired one is named so."""
    text = README.read_text()
    section = text[text.index("\n## CLI\n"):text.index("\n## Titanic pipeline\n")]
    named = set(re.findall(r"--[a-z][a-z-]*", section))
    (subs,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    made = {option for command in ("simulate", "titanic", "verify")
            for action in subs.choices[command]._actions for option in action.option_strings
            if option.startswith("--")}
    assert made - named == set()
    assert named - made <= RETIRED, named - made - RETIRED
