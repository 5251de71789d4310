"""What README.md states about the source tree and the command line holds."""

import contextlib
import io
import re
import shlex
from fractions import Fraction
from pathlib import Path

from ellhyp import claims
from ellhyp.cli import main

ROOT = Path(__file__).resolve().parents[1]


def test_readme_states_the_src_line_count():
    stated = re.findall(r"The package is (\d+) lines of Python under `src/`",
                        (ROOT / "README.md").read_text())
    actual = sum(len(path.read_text().splitlines())
                 for path in ROOT.glob("src/**/*.py"))
    assert stated == [str(actual)]


def test_readme_quick_start_commands_exit_0():
    text = (ROOT / "README.md").read_text()
    block = re.search(r"## Quick start\n\n```sh\n(.*?)```", text, re.S)[1]
    lines = [shlex.split(line, comments=True) for line in block.splitlines()]
    assert lines and all(argv[0] == "ellhyp" for argv in lines)
    failed = []
    for argv in lines:
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(argv[1:])
        if code != 0:
            failed.append((argv, code))
    assert failed == []


def test_readme_states_the_identities_of_claims_json():
    # the display L*(E, 0) = (1 / (k·√d·π)) · (± F̃(a, b) ...) per curve
    text = (ROOT / "README.md").read_text()
    shown = re.findall(r"^L\*\(E(\d+), 0\) = \(1 / \((\d+)·(?:√(\d+)·)?π\)\)"
                       r"\s+· \( (.*) \)$", text, re.M)
    assert [int(N) for N, *_ in shown] == [36, 64]
    for N, k, d, terms in shown:
        want_k, want_d, want_terms = claims.identity(int(N))
        signs = [1 if s != "−" else -1
                 for s in re.findall(r"(−|\+|^) ?F̃", terms)]
        args = [(Fraction(a), Fraction(b))
                for a, b in re.findall(r"F̃\((\S+), (\S+)\)", terms)]
        assert (int(k), int(d or 1)) == (want_k, want_d), N
        assert list(zip(signs, args)) == [(sign, (a, b))
                                          for sign, a, b in want_terms], N
