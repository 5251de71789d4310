"""Figures that README.md states about the source tree match the tree."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_readme_states_the_src_line_count():
    stated = re.findall(r"The package is (\d+) lines of Python under `src/`",
                        (ROOT / "README.md").read_text())
    actual = sum(len(path.read_text().splitlines())
                 for path in ROOT.glob("src/**/*.py"))
    assert stated == [str(actual)]
