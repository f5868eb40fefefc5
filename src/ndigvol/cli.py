"""Batch command-line interface over daily price CSVs.

Commands: fit, rollfit, simulate, price, surface, bvix, itvol, histvol,
pipeline.  Configuration comes from a flat key=value file (--config) with
command-line overrides winning; every output embeds a provenance line so
reruns are byte-verifiable.  Failures print a machine-readable JSON report
to stderr and exit nonzero; infeasible configurations (for example a
damping at or above the model bound) are rejected before any FFT runs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .estimate import ReturnSeries, RollingFitSeries, rolling_fit
from .io import (
    PriceSeries,
    RunConfig,
    config_from_mapping,
    load_config_file,
    load_prices,
    load_rates,
    returns_from_prices,
    write_option_chain_csv,
    write_paths_csv,
    write_rolling_fit_csv,
    write_volatility_csv,
)
from .model import NDIGParams
from .pricing import FFTGridConfig, price_surface
from .simulate import simulate_paths
from .volindex import (
    BvixConfig,
    _check_annualization,
    bvix_from_rolling,
    ndig_it_series,
    normalize,
    rolling_std_vol,
)

COMMANDS = (
    "fit", "rollfit", "simulate", "price", "surface",
    "bvix", "itvol", "histvol", "pipeline",
)

DEFAULT_SURFACE_MATURITIES = (7 / 365, 30 / 365, 90 / 365, 180 / 365, 1.0)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ndigvol",
        description="NDIG model estimation, option pricing and volatility indices",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", help="flat key=value configuration file")
    parser.add_argument("--input", help="input price CSV (date,close)")
    parser.add_argument("--output-dir", default=".", help="directory for output CSVs")
    parser.add_argument("--window", type=int, help="rolling window length")
    parser.add_argument("--seed", type=int, help="master RNG seed")
    parser.add_argument("--damping", type=float, help="Carr-Madan damping factor")
    parser.add_argument("--annualization", type=float, help="days per year for vol scaling")
    parser.add_argument("--rate-file", help="risk-free rate CSV (date,rate_annual)")
    parser.add_argument(
        "--set", action="append", default=[], metavar="KEY=VALUE",
        help="override any config key (repeatable)",
    )
    return parser


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    overrides: dict[str, str] = {}
    if args.config:
        overrides.update(load_config_file(args.config))
    for item in args.set:
        if "=" not in item:
            raise ValueError(f"--set expects KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        overrides[key.strip()] = value.strip()
    for key in ("window", "seed", "damping", "annualization"):
        value = getattr(args, key)
        if value is not None:
            overrides[key] = str(value)
    if args.rate_file is not None:
        overrides["rate_file"] = args.rate_file
    return config_from_mapping(overrides)


def _params(config: RunConfig) -> NDIGParams:
    return NDIGParams(
        mu3=config.mu3, sigma3=config.sigma3, rho=config.rho,
        lambda_t=config.lambda_t, lambda_u=config.lambda_u,
    )


def _grid(config: RunConfig) -> FFTGridConfig:
    return FFTGridConfig(n=config.fft_n, damping=config.damping, dv=config.fft_dv)


def _bvix_config(config: RunConfig) -> BvixConfig:
    return BvixConfig(
        strike_lo=config.strike_lo, strike_hi=config.strike_hi,
        n_strikes=config.n_strikes, grid=_grid(config),
    )


def _require_input(args: argparse.Namespace) -> PriceSeries:
    if not args.input:
        raise ValueError("this command requires --input pointing at a price CSV")
    return load_prices(args.input)


def _rates(config: RunConfig):
    """The rate file's dated rates, else the constant rate; either fails before any fit."""
    if config.rate_file is not None:
        return load_rates(config.rate_file)
    if not math.isfinite(config.rate):
        raise ValueError(f"config key 'rate' must be finite, got {config.rate}")
    return config.rate


def _surface_strikes(config: RunConfig) -> np.ndarray:
    return np.linspace(
        config.strike_lo * config.s0, config.strike_hi * config.s0, config.n_strikes
    )


def _bvix(prices: PriceSeries, rolling: RollingFitSeries, rates, config: BvixConfig):
    """BVIX of each fitted window; each skipped window is reported on stderr as JSON."""
    series, gaps = bvix_from_rolling(
        prices.closes, prices.dates, rolling, rates=rates, config=config
    )
    for day, reason in gaps:
        record = {"warning": "bvix_window_skipped", "date": day.isoformat(), "reason": reason}
        print(json.dumps(record), file=sys.stderr)
    return series


def _rolling(returns: ReturnSeries, config: RunConfig) -> RollingFitSeries:
    return rolling_fit(returns, window=config.window, step=config.step)


def run_command(command: str, args: argparse.Namespace, config: RunConfig) -> list[Path]:
    out = Path(args.output_dir)
    written: list[Path] = []

    def emit(name: str, writer, payload) -> None:
        path = out / name
        writer(path, payload, config)
        written.append(path)

    if command == "fit":
        returns = returns_from_prices(_require_input(args))
        # one window spanning the series
        emit("fit_params.csv", write_rolling_fit_csv, rolling_fit(returns, window=len(returns)))

    elif command == "rollfit":
        rolling = _rolling(returns_from_prices(_require_input(args)), config)
        emit("rolling_params.csv", write_rolling_fit_csv, rolling)

    elif command == "simulate":
        params = _params(config)
        h = config.horizon_days
        if not (h >= 1.0 and h.is_integer()):  # is_integer is False for nan and inf
            raise ValueError(f"config key 'horizon_days' must be a whole number >= 1, got {h}")
        if config.seed < 0:
            raise ValueError(f"config key 'seed' must be >= 0 for simulate, got {config.seed}")
        times = np.arange(0.0, h + 1.0)
        paths = simulate_paths(params, times, config.n_paths, x0=config.x0, seed=config.seed)
        emit("paths.csv", write_paths_csv, paths)

    elif command in ("price", "surface"):
        params = _params(config)
        maturities = (
            [config.maturity] if command == "price" else list(DEFAULT_SURFACE_MATURITIES)
        )
        chain = price_surface(
            params, config.s0, config.rate, _surface_strikes(config), maturities,
            grid=_grid(config),
        )
        emit("chain.csv", write_option_chain_csv, chain)

    elif command == "histvol":
        prices = _require_input(args)
        series = rolling_std_vol(
            returns_from_prices(prices), config.window, config.annualization
        )
        emit("std.csv", write_volatility_csv, series)

    elif command == "itvol":
        prices = _require_input(args)
        _check_annualization(config.annualization)
        series = ndig_it_series(_rolling(returns_from_prices(prices), config), config.annualization)
        emit("ndig_it.csv", write_volatility_csv, series)

    elif command == "bvix":
        prices = _require_input(args)
        rates, bvix_config = _rates(config), _bvix_config(config)  # a bad band fails before the fit
        series = _bvix(prices, _rolling(returns_from_prices(prices), config), rates, bvix_config)
        emit("bvix.csv", write_volatility_csv, series)

    elif command == "pipeline":
        prices = _require_input(args)
        rates, bvix_config = _rates(config), _bvix_config(config)
        _check_annualization(config.annualization)
        returns = returns_from_prices(prices)
        if config.step < 1:
            raise ValueError(f"step must be at least 1, got {config.step}")
        n_windows = len(range(0, len(returns) - config.window + 1, config.step))
        if n_windows < 2:
            raise ValueError(f"pipeline needs at least 2 fit windows to normalize, got {n_windows}")
        rolling = _rolling(returns, config)
        series = {
            "std": rolling_std_vol(returns, config.window, config.annualization),
            "ndig_it": ndig_it_series(rolling, config.annualization),
            "bvix": _bvix(prices, rolling, rates, bvix_config),
        }
        norms = {name: normalize(s) for name, s in series.items()}  # before any file is written
        emit("rolling_params.csv", write_rolling_fit_csv, rolling)
        for name, s in series.items():
            emit(f"{name}.csv", write_volatility_csv, s)
        for name, s in norms.items():
            emit(f"{name}_norm.csv", write_volatility_csv, s)

    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown command {command!r}")
    return written


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _resolve_config(args)
        config.provenance_line()  # reads any rate file: a bad one fails before the work
        written = run_command(args.command, args, config)
    except (ValueError, OSError) as exc:
        print(
            json.dumps({"error": str(exc), "command": args.command}), file=sys.stderr
        )
        return 2
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
