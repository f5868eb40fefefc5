"""Every command's output on a fixed 1,030-close series, against committed files.

``tests/golden/regen.py`` wrote ``tests/golden/expected/``.  Headers, dates,
kinds, integer or flag columns and the provenance line must match exactly,
and floats within ``REL`` relative, so that another numpy or libm can pass.
A fixture whose provenance line no longer matches what the command writes
is stale: rerun ``regen.py``.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from golden.regen import CASES, CLOSES, EXPECTED, run_case
from ndigvol import ndig_it_series, rolling_fit, rolling_std_vol
from ndigvol.io import load_prices, returns_from_prices

REL = 1e-12


def same_cell(got: str, want: str) -> bool:
    if got == want:
        return True
    if want.lstrip("-").isdigit():  # an int or flag column
        return False
    try:
        x, y = float(got), float(want)
    except ValueError:  # a date or kind
        return False
    return abs(x - y) <= REL * abs(y)


def assert_same_csv(got: Path, want: Path) -> None:
    got_lines = got.read_text().splitlines()
    want_lines = want.read_text().splitlines()
    assert got_lines[0] == want_lines[0], "provenance"
    assert got_lines[1] == want_lines[1], "header"
    assert len(got_lines) == len(want_lines), "row count"
    for lineno, (g, w) in enumerate(zip(got_lines[2:], want_lines[2:]), start=3):
        g_cells, w_cells = g.split(","), w.split(",")
        assert len(g_cells) == len(w_cells), f"{got.name}:{lineno}"
        bad = [i for i, (a, b) in enumerate(zip(g_cells, w_cells)) if not same_cell(a, b)]
        assert not bad, f"{got.name}:{lineno}: {g!r} != {w!r}"


@pytest.mark.parametrize("case", list(CASES))
def test_command_matches_golden(case, tmp_path, capsys):
    assert run_case(case, tmp_path) == 0
    capsys.readouterr()
    want_dir = EXPECTED / case
    names = sorted(p.name for p in want_dir.iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == names
    for name in names:
        assert_same_csv(tmp_path / name, want_dir / name)


def test_it_vol_equals_std_by_construction():
    # every window, matched or Gaussian limit, fits the sample's n - 1
    # variance exactly, and rolling STD is that same variance
    returns = returns_from_prices(load_prices(CLOSES))
    it_vol = ndig_it_series(rolling_fit(returns, window=1008))
    std = rolling_std_vol(returns, window=1008)
    assert it_vol.dates == std.dates
    assert len(std.dates) == 22
    assert np.max(np.abs(it_vol.values / std.values - 1.0)) <= 1e-14
