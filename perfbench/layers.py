"""Per-layer metrics from a finished trace.

Top-level spans are the workload's traced calls; ``wall`` below is the sum
of their durations.  Times named ``busy`` include child spans, ``self`` times
exclude them.  A layer the workload never calls reports 0.  FFT times are
split by grid: ``dense_ms_p50`` covers ``FFTGridConfig.dense()`` calls and
``ms_p50`` all others, so a mix of the two never yields a midpoint.
"""

from __future__ import annotations

import numpy as np

from ndigvol.pricing import FFTGridConfig
from tracer import TRACED_MODULES, Tracer

DENSE_POINTS = FFTGridConfig.dense().n


def _pct(values, q: float, scale: float = 1.0) -> float:
    return float(np.percentile(values, q)) * scale if len(values) else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    a = tracer.arrays()
    ids, dur, self_time = a["name_id"], a["dur"], a["self"]
    wall = float(dur[a["parent"] < 0].sum())

    def mask(name: str) -> np.ndarray:
        nid = tracer.names.index(name) if name in tracer.names else -1
        return ids == nid

    def durs(name: str) -> np.ndarray:
        return dur[mask(name)]

    def calls(name: str) -> int:
        return int(mask(name).sum())

    def busy(name: str) -> float:
        return float(durs(name).sum())

    def note(name: str, key: str) -> list:
        return [n[key] for _, n in tracer.notes.get(name, [])]

    ffts = tracer.notes.get("pricing.carr_madan_prices", [])
    dense_fft = [dur[i] for i, n in ffts if n["points"] == DENSE_POINTS]
    other_fft = [dur[i] for i, n in ffts if n["points"] != DENSE_POINTS]
    fits = tracer.notes.get("estimate.fit", [])
    cold = [dur[i] for i, n in fits if not n["warm"]]
    warm = [dur[i] for i, n in fits if n["warm"]]
    evals = note("estimate.fit", "evals")
    warm_evals = [n["evals"] for _, n in fits if n["warm"]]
    fit_busy = busy("estimate.fit")
    sim_busy = busy("simulate.simulate_paths")
    writes = [n for n in tracer.names if n.startswith("io.write_")]

    out = {
        "estimate.fit.calls": calls("estimate.fit"),
        "estimate.fit.cold_ms": _pct(cold, 50, 1e3),
        "estimate.fit.warm_ms_p50": _pct(warm, 50, 1e3),
        "estimate.fit.warm_ms_p90": _pct(warm, 90, 1e3),
        "estimate.fit.evals": int(sum(evals)),
        "estimate.fit.evals_p50": _pct(warm_evals, 50),
        "estimate.fit.us_per_eval": fit_busy / sum(evals) * 1e6 if evals else 0.0,
        "estimate.fit.converged_frac": float(np.mean(note("estimate.fit", "converged"))) if fits else 0.0,
        "estimate.fit.wall_frac": fit_busy / wall,
        "estimate.empirical_chf.ms_p50": _pct(durs("estimate.empirical_chf"), 50, 1e3),
        "estimate.rolling_fit.self_s": float(self_time[mask("estimate.rolling_fit")].sum()),
        "model.chf.calls": calls("model.chf"),
        "model.chf.nodes": int(sum(note("model.chf", "nodes"))),
        "model.chf.busy_s": busy("model.chf"),
        "model.moments.busy_s": busy("model.moments"),
        "model.feasible_interval.busy_s": busy("model.feasible_interval"),
        "model.cgf.calls": calls("model.cgf"),
        "pricing.implied_vol.calls": calls("pricing.implied_vol"),
        "pricing.implied_vol.us_p50": _pct(durs("pricing.implied_vol"), 50, 1e6),
        "pricing.implied_vol.failed": int(a["failed"][mask("pricing.implied_vol")].sum()),
        "pricing.implied_vol.wall_frac": busy("pricing.implied_vol") / wall,
        "pricing.bsm_price.calls": calls("pricing.bsm_price"),
        "pricing.put_from_parity.calls": calls("pricing.put_from_parity"),
        "pricing.price_surface.self_ms_p50": _pct(self_time[mask("pricing.price_surface")], 50, 1e3),
        "pricing.carr_madan_prices.calls": calls("pricing.carr_madan_prices"),
        "pricing.carr_madan_prices.ms_p50": _pct(other_fft, 50, 1e3),
        "pricing.carr_madan_prices.dense_ms_p50": _pct(dense_fft, 50, 1e3),
        "pricing.fft_points": int(sum(note("pricing.carr_madan_prices", "points"))),
        "volindex.bvix_from_rolling.self_s": float(self_time[mask("volindex.bvix_from_rolling")].sum()),
        "volindex.term_variance.busy_s": busy("volindex.term_variance"),
        "volindex.gaps": int(sum(note("volindex.bvix_from_rolling", "gaps"))),
        "volindex.rolling_std_vol.ms": busy("volindex.rolling_std_vol") * 1e3,
        "volindex.ndig_it_series.ms": busy("volindex.ndig_it_series") * 1e3,
        "volindex.normalize.ms": busy("volindex.normalize") * 1e3,
        "simulate.simulate_paths.s": sim_busy,
        "simulate.path_steps_per_s": sum(note("simulate.simulate_paths", "steps")) / sim_busy if sim_busy else 0.0,
        "io.write_paths_csv.s": busy("io.write_paths_csv"),
        "io.write_csv_other.s": sum(busy(n) for n in writes if n != "io.write_paths_csv"),
        "io.load_prices.ms": busy("io.load_prices") * 1e3,
        "io.rows_written": int(sum(sum(note(n, "rows")) for n in writes)),
        "io.bytes_written": int(sum(sum(note(n, "bytes")) for n in writes)),
        "cli.run_command.self_s": float(self_time[mask("cli.run_command")].sum()),
        "trace.spans": len(dur),
        "trace.wall_s": wall,
    }
    # layer shares: self time of each module's spans over the top-level wall
    layer = np.array([name.split(".")[0] for name in tracer.names])[ids]
    for module in TRACED_MODULES + ("bench",):
        out[f"share.{module}"] = float(self_time[layer == module].sum()) / wall
    return out
