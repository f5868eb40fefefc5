"""Every command's output on a fixed 1,030-close series, against committed files.

``tests/golden/regen.py`` wrote ``tests/golden/expected/``.  Headers, dates,
kinds and integer or flag columns must match exactly, and floats within
``REL`` relative, so that another numpy or libm can pass.  Of the provenance
line only the ``# ndigvol=`` prefix and the seed are compared: the
``config=`` hash is pinned by ``test_default_hash_pinned``.
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
    head_got, head_want = got_lines[0].split(), want_lines[0].split()
    assert head_got[1].startswith("ndigvol="), got_lines[0]
    assert head_got[-1] == head_want[-1], "seed"
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
