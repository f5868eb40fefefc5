"""The four benchmark workloads.

Each workload is a closed loop with one caller: the next call starts when
the previous one has returned.  A workload builds its inputs from the seed
(see ``inputs``) in its constructor, and then offers

* ``warm_up()``      -- one untimed item, so lazy set-up is paid before timing,
* ``run(i)``         -- the i-th timed call into ndigvol's public API, which
                        completes ``items_per_call`` items,
* ``check(i, out)``  -- output checks at the library's documented tolerances,
                        returning the reasons for any failure,
* ``quality()``      -- accuracy figures computed outside the timed region.

``nominal_call_s`` is a call's median time on the reference box (2-vCPU
Xeon VM); it fixes how many calls a traced run makes.

Calls cycle through ``n_variants`` distinct inputs in a fixed order.  The
variant counts are chosen so that an 18-second run on the reference box
calls each variant about once (``bvix-replay`` and ``simulate-csv`` about
five and three times): the more independent inputs a run averages over,
the less its figures depend on the seed.  ndigvol is reached only through
module attributes (``cli.main``, ``pricing.price_surface``, ...) so that the
tracer's rebinding is seen.
"""

from __future__ import annotations

import contextlib
import csv
import io as textio
import math
from pathlib import Path

import numpy as np

import ndigvol.cli as cli
import ndigvol.estimate as estimate
import ndigvol.io as nio
import ndigvol.model as model
import ndigvol.pricing as pricing
import ndigvol.volindex as volindex

import inputs

PIPELINE_OUTPUTS = (
    "rolling_params.csv", "std.csv", "ndig_it.csv", "bvix.csv",
    "std_norm.csv", "ndig_it_norm.csv", "bvix_norm.csv",
)
# price_surface already enforces this on each inversion (implied_vol)
REPRICE_TOL = 1e-10
# parity residual tolerance of acceptance criterion C6
PARITY_TOL = 1e-10
# standard errors allowed between the simulated and analytic terminal mean
MEAN_SE_LIMIT = 5.0


def call_cli(argv: list[str]) -> tuple[int, str, str]:
    """Run ``ndigvol <argv>`` in-process; returns (exit code, stdout, stderr)."""
    out, err = textio.StringIO(), textio.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def write_close_csv(path: Path, dates, closes) -> Path:
    lines = ["date,close"] + [f"{d.isoformat()},{float(c)!r}" for d, c in zip(dates, closes)]
    path.write_text("\n".join(lines) + "\n")
    return path


def read_csv_rows(path: Path) -> tuple[str, list[str], list[list[str]]]:
    """(provenance line, header, data rows) of an ndigvol output CSV."""
    with open(path, newline="") as fh:
        provenance = fh.readline().rstrip("\n")
        rows = list(csv.reader(fh))
    return provenance, rows[0] if rows else [], rows[1:]


def _cli_failure(rc: int, stderr: str) -> list[str]:
    return [] if rc == 0 else [f"exit code {rc}: {stderr.strip()[:300]}"]


class PipelineRolling:
    name = "pipeline-rolling"
    why = ("The product's main job: ndigvol pipeline over rolling 1008-day windows; "
           "estimate.fit is ~99% of it, so fit and model changes show here.")
    item = "window"
    WINDOW = 1008
    WINDOWS_PER_CALL = items_per_call = 10
    n_variants = 36
    nominal_call_s = 0.55

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        n_closes = self.WINDOW + self.WINDOWS_PER_CALL  # one window per close past the first 1008
        dates = inputs.days(n_closes)
        self.csvs = [
            write_close_csv(workdir / f"closes_{k}.csv", dates, inputs.regime_closes(seed, k, n_closes))
            for k in range(self.n_variants)
        ]
        warm = inputs.regime_closes(seed, self.n_variants, self.WINDOW + 2)
        self.warmup_csv = write_close_csv(workdir / "warmup.csv", dates[: len(warm)], warm)
        self.out = workdir / "out"
        self.objectives: dict[int, list[float]] = {}

    def _argv(self, csv_path: Path) -> list[str]:
        return ["pipeline", "--input", str(csv_path), "--output-dir", str(self.out),
                "--window", str(self.WINDOW), "--seed", str(self.seed)]

    def warm_up(self) -> None:
        rc, _, err = call_cli(self._argv(self.warmup_csv))
        if rc != 0:
            raise RuntimeError(f"warm-up pipeline failed: {err.strip()}")

    def run(self, i: int):
        return call_cli(self._argv(self.csvs[i % self.n_variants]))

    def check(self, i: int, out) -> list[str]:
        rc, stdout, stderr = out
        bad = _cli_failure(rc, stderr)
        if bad:
            return bad
        written = [Path(line).name for line in stdout.split()]
        if sorted(written) != sorted(PIPELINE_OUTPUTS):
            bad.append(f"pipeline wrote {written}, expected {list(PIPELINE_OUTPUTS)}")
        if "bvix_window_skipped" in stderr:
            bad.append("BVIX gaps reported")
        for name in PIPELINE_OUTPUTS:
            path = self.out / name
            if not path.is_file():
                bad.append(f"{name} missing")
                continue
            provenance, header, rows = read_csv_rows(path)
            if not provenance.startswith("# ndigvol="):
                bad.append(f"{name}: no provenance line")
            if len(rows) != self.WINDOWS_PER_CALL:
                bad.append(f"{name}: {len(rows)} rows, expected {self.WINDOWS_PER_CALL} windows")
            numeric = header[1:7] if name == "rolling_params.csv" else ["value_percent"]
            cols = [header.index(c) for c in numeric if c in header]
            if len(cols) != len(numeric):
                bad.append(f"{name}: header {header}")
                continue
            values = np.array([[float(r[c]) for c in cols] for r in rows])
            if not np.all(np.isfinite(values)):
                bad.append(f"{name}: non-finite values")
            if name == "rolling_params.csv" and not bad:
                self.objectives[i % self.n_variants] = list(values[:, -1])
        return bad

    def quality(self) -> dict[str, float]:
        objectives = [v for vals in self.objectives.values() for v in vals]
        return {"fit_objective_p50": float(np.median(objectives)) if objectives else math.nan}


class SurfaceGrid:
    name = "surface-grid"
    why = ("CLI-shaped 5x40 price_surface calls near the BTC reference on the default and "
           "dense grids; implied-vol inversion is ~99% and nothing is fitted.")
    item = "surface"
    N_SETS = 32
    n_variants = 2 * N_SETS
    items_per_call = 1
    nominal_call_s = 0.4

    def __init__(self, seed: int, workdir: Path) -> None:
        cfg = nio.RunConfig()  # the CLI defaults: s0, rate and the strike band
        self.s0, self.rate = cfg.s0, cfg.rate
        self.strikes = np.linspace(cfg.strike_lo * cfg.s0, cfg.strike_hi * cfg.s0, cfg.n_strikes)
        self.maturities = list(cli.DEFAULT_SURFACE_MATURITIES)
        self.grids = (pricing.FFTGridConfig(), pricing.FFTGridConfig.dense())
        self.params = [model.NDIGParams(**q) for q in inputs.surface_parameter_batch(seed, self.N_SETS)]

    def warm_up(self) -> None:
        self.run(0)

    def run(self, i: int):
        return pricing.price_surface(
            self.params[(i // 2) % self.N_SETS], self.s0, self.rate, self.strikes,
            self.maturities, grid=self.grids[i % 2])

    def check(self, i: int, chain) -> list[str]:
        bad = []
        if chain.bound_flags.any():
            bad.append(f"{int(chain.bound_flags.sum())} bound flags set")
        worst_reprice = worst_parity = 0.0
        for m, tau in enumerate(self.maturities):
            ctx = pricing.MarketContext(s0=self.s0, r=self.rate, maturity=tau)
            disc = math.exp(-self.rate * tau)
            for k, strike in enumerate(self.strikes):
                call, vol = float(chain.call_prices[m, k]), float(chain.implied_vols[m, k])
                if not vol > 0.0:
                    bad.append(f"no implied vol at maturity {tau:.4f}, strike {strike:.2f}")
                    continue
                err = abs(pricing.bsm_price(ctx, float(strike), vol) - call) / max(1.0, call)
                worst_reprice = max(worst_reprice, err)
                resid = call - float(chain.put_prices[m, k]) - self.s0 + strike * disc
                worst_parity = max(worst_parity, abs(resid))
        if worst_reprice > REPRICE_TOL:
            bad.append(f"bsm_price(iv) misses the call by {worst_reprice:.2e} (relative)")
        if worst_parity > PARITY_TOL:
            bad.append(f"parity residual {worst_parity:.2e}")
        return bad

    def quality(self) -> dict[str, float]:
        return {}


class BvixReplay:
    name = "bvix-replay"
    why = ("bvix_from_rolling over a given fit series spanning ~40-130% BVIX: pricing "
           "without implied vols, FFT-heavy; a shared chain builder shows here.")
    item = "window"
    WINDOW = 1008
    WINDOWS_PER_CALL = items_per_call = 400
    REF_STRIDE = 25  # windows 0, 25, 50, ... are also priced on the dense grid
    n_variants = 12
    nominal_call_s = 0.33

    def __init__(self, seed: int, workdir: Path) -> None:
        n = self.WINDOWS_PER_CALL
        self.closes = inputs.reference_closes(seed, self.WINDOW + n)
        self.dates = inputs.days(len(self.closes))
        self.rollings = [
            estimate.RollingFitSeries(
                window_end_dates=self.dates[self.WINDOW:],
                results=tuple(
                    estimate.FitResult(params=model.NDIGParams(**q), objective_value=0.0,
                                       term_breakdown=(0.0,) * 5, converged=True, evaluations=0)
                    for q in inputs.bvix_parameter_path(seed, n, k)),
                window_length=self.WINDOW)
            for k in range(self.n_variants)
        ]
        self.rolling = self.rollings[0]  # also priced on the dense grid, in quality()

    def _bvix(self, rolling, config=None):
        return volindex.bvix_from_rolling(self.closes, self.dates, rolling, config=config)

    def warm_up(self) -> None:
        one = estimate.RollingFitSeries(self.rolling.window_end_dates[:1], self.rolling.results[:1],
                                        self.WINDOW)
        self._bvix(one)

    def run(self, i: int):
        return self._bvix(self.rollings[i % self.n_variants])

    def check(self, i: int, out) -> list[str]:
        series, gaps = out
        bad = [f"{len(gaps)} BVIX gaps, first: {gaps[0][1]}"] if gaps else []
        if len(series.values) != self.WINDOWS_PER_CALL:
            bad.append(f"{len(series.values)} BVIX values for {self.WINDOWS_PER_CALL} windows")
        if not np.all(np.isfinite(series.values) & (series.values > 0.0)):
            bad.append("non-finite or non-positive BVIX values")
        return bad

    def quality(self) -> dict[str, float]:
        """Largest relative BVIX error of the default grid against the dense grid."""
        s = slice(None, None, self.REF_STRIDE)
        sub = estimate.RollingFitSeries(self.rolling.window_end_dates[s], self.rolling.results[s],
                                        self.WINDOW)
        default, _ = self._bvix(sub)
        dense, _ = self._bvix(sub, volindex.BvixConfig(grid=pricing.FFTGridConfig.dense()))
        return {"bvix_ref_relerr_max": float(np.max(np.abs(default.values / dense.values - 1.0)))}


class SimulateCsv:
    name = "simulate-csv"
    why = ("ndigvol simulate at the BTC reference over 30 days: the only workload where "
           "simulate and CSV writing are more than 1% of the time.")
    item = "path"
    PATHS_PER_CALL = items_per_call = 10_000
    nominal_call_s = 1.7
    HORIZON = 30
    n_variants = 4

    def __init__(self, seed: int, workdir: Path) -> None:
        self.sim_seeds = inputs.simulate_seeds(seed, self.n_variants)
        self.out = workdir / "out"
        self.params = model.NDIGParams(**inputs.BTC_REFERENCE)
        self.expected_mean = self.HORIZON * model.moments(self.params).mean

    def _argv(self, sim_seed: int, n_paths: int) -> list[str]:
        argv = ["simulate", "--output-dir", str(self.out), "--seed", str(sim_seed),
                "--set", f"n_paths={n_paths}", "--set", f"horizon_days={self.HORIZON}"]
        for key, value in inputs.BTC_REFERENCE.items():
            argv += ["--set", f"{key}={value!r}"]
        return argv

    def warm_up(self) -> None:
        rc, _, err = call_cli(self._argv(self.sim_seeds[0], 1))
        if rc != 0:
            raise RuntimeError(f"warm-up simulate failed: {err.strip()}")

    def run(self, i: int):
        return call_cli(self._argv(self.sim_seeds[i % self.n_variants], self.PATHS_PER_CALL))

    def check(self, i: int, out) -> list[str]:
        rc, _, stderr = out
        bad = _cli_failure(rc, stderr)
        if bad:
            return bad
        path = self.out / "paths.csv"
        expected_rows = self.PATHS_PER_CALL * (self.HORIZON + 1)
        data = np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2)
        if data.shape != (expected_rows, 3):
            return [f"paths.csv has shape {data.shape}, expected ({expected_rows}, 3)"]
        x = data[:, 2].reshape(self.PATHS_PER_CALL, self.HORIZON + 1)
        terminal = x[:, -1] - x[:, 0]
        se = float(terminal.std(ddof=1)) / math.sqrt(len(terminal))
        z = (float(terminal.mean()) - self.expected_mean) / se
        if abs(z) > MEAN_SE_LIMIT:
            bad.append(f"terminal mean {terminal.mean():.5g} is {z:.1f} SE from "
                       f"{self.expected_mean:.5g}")
        return bad

    def quality(self) -> dict[str, float]:
        return {}


WORKLOADS = {w.name: w for w in (PipelineRolling, SurfaceGrid, BvixReplay, SimulateCsv)}
