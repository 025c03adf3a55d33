"""The README's library tour runs as printed."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_tour_runs(capsys):
    (tour,) = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    exec(compile(tour, str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "1.0"  # the accuracy the tour's comment gives
    assert float(lines[-1]) < 1e-9  # the maps are exact
