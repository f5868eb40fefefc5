#!/usr/bin/env python3
"""ndigvol benchmark: one seeded workload per run, one process, one thread.

    python3 perfbench/run.py --workload pipeline-rolling --seed 1 --seconds 18 --trace 0

Run from the root of a source checkout; ndigvol is imported from its
``src/`` directory.  The workloads are defined in ``workloads.py`` and the
metric names and units in ``BENCHMARK.json``.

``--trace 0`` times the workload for ``--seconds`` of calls and prints the
end-to-end metrics.  Times are put at the reference speed (see
``calibrate``): each is scaled by the reference work's usual time over its
mean time around the same call.  ``--trace 1`` runs the same calls twice,
first untraced and then with every public ndigvol function wrapped by
``tracer.Tracer``, and prints the per-layer metrics plus the tracing
overhead.

Every call's output is checked; failed items are counted in ``failed``.
Lines before the last are details for people; the last line is the result.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
TRACES = HERE / "_traces"
# fresh-process set-ups timed besides the run's own; setup_s is their median
SETUP_PROBES = 3
# reference work after each call, as a share of the workload's nominal call time
REF_SHARE = 0.05
# a call is put at the reference speed by the reference samples within about
# this many seconds of it: the slow spells of a shared host last seconds to minutes
SPEED_WINDOW_S = 2.0
# reference units timed after each set-up
SETUP_REF_REPS = 10
# accuracy figures, each measured by one workload only
ACCURACY = ("fit_objective_p50", "bvix_ref_relerr_max")
# the eight headline figures printed on the detail line of every run
SUMMARY = ("setup_s", "items_per_s", "call_p50_ms", "call_p90_ms", "peak_rss_mb",
           "failed_frac") + ACCURACY


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up in this process, print it and exit")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def set_up(name: str, seed: int, workdir: Path):
    """Import ndigvol, build the workload's inputs and fixtures, run one warm-up item.

    Returns the workload and the set-up time at the reference speed: the
    reference work is timed right after the set-up, in the same process.
    """
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import ndigvol
    if not Path(ndigvol.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"ndigvol imported from {ndigvol.__file__}, not from {SRC}")
    import workloads

    if name not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {name!r}; choose from {sorted(workloads.WORKLOADS)}")
    workdir.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[name](seed, workdir)
    workload.warm_up()
    elapsed = time.perf_counter() - t0
    import calibrate

    return workload, elapsed * calibrate.NOMINAL_S / statistics.fmean(
        calibrate.sample(SETUP_REF_REPS))


def probe_setup(name: str, seed: int) -> float:
    """Time one set-up in a fresh interpreter, so the import is paid again."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
         "--setup-only"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


class Loop:
    """Closed loop over the workload's input variants.

    Call ``i`` feeds variant ``i % n_variants``.  Each call is timed and
    checked, and followed by reference work (``calibrate``) worth about
    ``REF_SHARE`` of its nominal time, so that the run's timings can be put
    at the reference speed.
    """

    def __init__(self, workload) -> None:
        self.workload = workload
        self.durations: list[float] = []
        import calibrate  # after set-up, whose timing includes the numpy import

        self.calibrate = calibrate
        self.ref_times: list[float] = []
        self.ref_reps = max(1, round(REF_SHARE * workload.nominal_call_s / calibrate.NOMINAL_S))
        self.failed_items = 0
        self.failures: list[str] = []

    def step(self) -> int:
        """Time and check the next call; returns its index."""
        wl, i = self.workload, len(self.durations)
        t0 = time.perf_counter()
        try:
            out, reasons = wl.run(i), []
        except Exception as exc:  # counted as a failed call, the loop goes on
            out, reasons = None, [f"{type(exc).__name__}: {exc}"]
        self.durations.append(time.perf_counter() - t0)
        self.ref_times.extend(self.calibrate.sample(self.ref_reps))
        if not reasons:
            reasons = wl.check(i, out)
        if reasons:
            self.failed_items += wl.items_per_call
            self.failures.extend(f"call {i}: {r}" for r in reasons)
        return i

    def run(self, seconds: float) -> None:
        """Call after call until ``seconds`` of call time have passed."""
        while sum(self.durations) < seconds:
            self.step()

    @property
    def attempted(self) -> int:
        return len(self.durations) * self.workload.items_per_call

    @property
    def speed(self) -> float:
        """Reference time at the usual speed over this run's mean reference time."""
        return self.calibrate.NOMINAL_S / statistics.fmean(self.ref_times)

    def scaled(self) -> list[float]:
        """Call times at the reference speed, in seconds.

        Call ``i`` is scaled by the reference's usual time over the mean of
        the reference samples taken after calls ``i - k`` to ``i + k``, where
        ``k`` calls span about ``SPEED_WINDOW_S``.
        """
        k = max(1, round(SPEED_WINDOW_S / self.workload.nominal_call_s))
        reps, refs, nominal = self.ref_reps, self.ref_times, self.calibrate.NOMINAL_S
        out = []
        for i, d in enumerate(self.durations):
            lo, hi = max(0, i - k) * reps, (i + k + 1) * reps
            out.append(d * nominal / statistics.fmean(refs[lo:hi]))
        return out

    def variant_means(self) -> list[float]:
        """Mean scaled call time of each variant called so far, in seconds."""
        n, d = self.workload.n_variants, self.scaled()
        return [statistics.fmean(d[v::n]) for v in range(min(n, len(d)))]


def run_traced(loop: Loop, seconds: float):
    """Run calls untraced, each followed by the same call traced.

    The number of calls is fixed by ``seconds`` and the workload's nominal
    call time, not by the clock, so a traced run's counts repeat exactly for
    a given seed and ``seconds``.  Interleaving the pairs exposes both halves
    to the same machine load, so their difference estimates the tracing
    overhead.  Each traced call is one top-level span; together they cover
    the traced run.
    """
    from tracer import Tracer

    tracer = Tracer()
    top = f"bench.{loop.workload.name}"

    def traced(i: int) -> None:
        tracer.install()
        try:
            with tracer.span(top):
                loop.workload.run(i)
        except Exception:  # the untraced twin has already counted the failure
            pass
        finally:
            tracer.uninstall()

    for _ in range(max(1, round(seconds / loop.workload.nominal_call_s))):
        traced(loop.step())
    return tracer


def environment() -> dict:
    import numpy
    import scipy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ndigvol" / "__init__.py").is_file():
        print(f"error: no ndigvol sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        workload, own_setup = set_up(args.workload, args.seed, workdir)
        if args.setup_only:
            print(json.dumps({"setup_s": own_setup}))
            return 0

        loop = Loop(workload)
        if args.trace:
            tracer = run_traced(loop, args.seconds / 2.0)
            tracer.save(TRACES / f"{args.workload}.npz")
            from layers import layer_metrics

            values = layer_metrics(tracer)
            untraced = sum(loop.durations)
            values["trace.overhead_frac"] = (values.pop("trace.wall_s") - untraced) / untraced
            setup_samples = [own_setup]
        else:
            loop.run(args.seconds)
            setup_samples = [own_setup] + [probe_setup(args.workload, args.seed)
                                           for _ in range(SETUP_PROBES)]
            values = {}
        quality = workload.quality()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only once no other run is using it

    import numpy as np

    failed_frac = loop.failed_items / loop.attempted
    means = loop.variant_means()
    # accuracy figures of the other workloads: not measured here, reported as 0
    values.update({name: 0.0 for name in ACCURACY}, **quality)
    values.update({
        "setup_s": statistics.median(setup_samples),
        "items_per_s": loop.attempted / sum(loop.scaled()),
        "call_p50_ms": float(np.percentile(means, 50)) * 1e3,
        "call_p90_ms": float(np.percentile(means, 90)) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failed_frac": failed_frac,
    })
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise RuntimeError(f"metrics not computed: {missing}")

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    summary = {
        name: {"value": None if name in ACCURACY and name not in quality else values[name],
               "unit": units[name]}
        for name in SUMMARY
    }
    print(json.dumps({
        "workload": workload.name, "why": workload.why, "seed": args.seed, "trace": args.trace,
        "item": workload.item, "call_samples": len(loop.durations), "variants": len(means),
        "items": loop.attempted, "measured_s": sum(loop.durations),
        "raw_items_per_s": loop.attempted / sum(loop.durations), "speed": loop.speed,
        "setup_samples_s": setup_samples,
        "summary": summary, "failures": loop.failures[:10], "environment": environment(),
    }))
    print(json.dumps({
        "correct": loop.failed_items == 0,
        "attempted": loop.attempted,
        "failed": loop.failed_items,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
