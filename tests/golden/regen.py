"""Rewrite the golden outputs of every ndigvol command.

Usage, from the repository root:

    PYTHONPATH=src python tests/golden/regen.py

The inputs, ``closes.csv`` (1,030 daily closes, so 22 windows of 1,008
returns) and ``rates.csv``, are drawn once and then kept: the script writes
them only when they are missing.  Every case in ``CASES`` is run through
``ndigvol.cli.main`` into ``expected/<case>/``, replacing what was there.
``tests/test_golden.py`` runs the same cases and compares.  A change that
moves numbers on purpose reruns this script and names the files that moved.
"""

from __future__ import annotations

import shutil
import sys
from datetime import date, timedelta
from pathlib import Path

import numpy as np

from ndigvol import NDIGParams, simulate_paths
from ndigvol.cli import main as ndigvol_main

HERE = Path(__file__).resolve().parent
CLOSES = HERE / "closes.csv"
RATES = HERE / "rates.csv"
EXPECTED = HERE / "expected"

# the bitcoin reference parameters, for the commands that price or simulate
BTC = ["--set", "mu3=0.004", "--set", "sigma3=0.0551", "--set", "rho=-0.0008",
       "--set", "lambda_t=9.9293", "--set", "lambda_u=0.145"]
SMALL_FFT = ["--set", "fft_n=2048"]

# case name -> ndigvol argv, less --output-dir
CASES: dict[str, list[str]] = {
    "pipeline": ["pipeline", "--input", str(CLOSES), "--seed", "7", *SMALL_FFT],
    "pipeline_rates": ["pipeline", "--input", str(CLOSES), "--seed", "7",
                       "--rate-file", str(RATES), *SMALL_FFT],
    "fit": ["fit", "--input", str(CLOSES)],
    "rollfit": ["rollfit", "--input", str(CLOSES), "--set", "step=3"],
    "histvol": ["histvol", "--input", str(CLOSES)],
    "itvol": ["itvol", "--input", str(CLOSES)],
    "bvix": ["bvix", "--input", str(CLOSES), *SMALL_FFT],
    "surface": ["surface", *BTC, "--set", "n_strikes=11", *SMALL_FFT],
    # a one-day maturity: the deep wings get no implied vol and a bound flag
    "price": ["price", *BTC, "--set", "maturity=0.00273972602739726"],
    "simulate": ["simulate", *BTC, "--seed", "11", "--set", "n_paths=4",
                 "--set", "horizon_days=5"],
}


def write_inputs() -> None:
    """Closes from NDIG increments at the reference parameters, and a rate step."""
    if not CLOSES.exists():
        p = NDIGParams(mu3=0.004, sigma3=0.0551, rho=-0.0008, lambda_t=9.9293, lambda_u=0.145)
        x = simulate_paths(p, np.array([0.0, 1.0]), 1029, seed=16).paths[:, 1]
        closes = 1000.0 * np.exp(np.concatenate(([0.0], np.cumsum(x))))
        d0 = date(2016, 1, 1)
        rows = [f"{(d0 + timedelta(days=i)).isoformat()},{c:.10g}" for i, c in enumerate(closes)]
        CLOSES.write_text("date,close\n" + "\n".join(rows) + "\n")
    if not RATES.exists():
        # the step falls inside the fitted windows' end dates
        RATES.write_text("date,rate_annual\n2016-01-01,0.01\n2018-10-15,0.035\n")


def run_case(name: str, out_dir: Path) -> int:
    return ndigvol_main([*CASES[name], "--output-dir", str(out_dir)])


def main() -> int:
    write_inputs()
    for name in CASES:
        out_dir = EXPECTED / name
        shutil.rmtree(out_dir, ignore_errors=True)
        if run_case(name, out_dir) != 0:
            print(f"case {name!r} failed", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
