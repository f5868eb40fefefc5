"""CSV ingestion, run configuration, and deterministic output writers.

All outputs are plain CSV with a single provenance comment line on top
(`# ndigvol=<version> config=<hash> seed=<seed>`) and fixed column schemas.
Each writer hands whole numpy columns to one column writer, which turns
them into rows in fixed blocks, so its memory does not grow with the file.
A block is written as one string: each cell is ``str`` of its value (a
float's shortest round-trip repr, `nan` for a missing value, a flag as a
0/1 int), joined with commas and newlines.  Cells are never quoted, so a
header or text cell holding a comma, a double quote or a line break is
rejected.  Identical inputs and seed reproduce identical bytes.  Files are
written atomically (temp-then-rename).
"""

from __future__ import annotations

import csv
import hashlib
import logging
import math
import os
import tempfile
from dataclasses import dataclass, fields
from datetime import date
from functools import cached_property
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from .estimate import ReturnSeries, RollingFitSeries
from .pricing import FFTGridConfig, OptionChain
from .simulate import PathSet
from .volindex import BvixConfig, VolatilitySeries

__all__ = [
    "PriceSeries",
    "RunConfig",
    "load_prices",
    "load_rates",
    "returns_from_prices",
    "write_rolling_fit_csv",
    "write_option_chain_csv",
    "write_volatility_csv",
    "write_paths_csv",
]

logger = logging.getLogger(__name__)

@dataclass(frozen=True)
class PriceSeries:
    """Dated daily close prices; strictly increasing dates, finite positive closes."""

    dates: tuple[date, ...]
    closes: np.ndarray

    def __post_init__(self) -> None:
        c = np.asarray(self.closes, dtype=float)
        object.__setattr__(self, "closes", c)
        if len(self.dates) != len(c):
            raise ValueError("dates and closes must have the same length")
        if any(b <= a for a, b in zip(self.dates, self.dates[1:])):
            raise ValueError("dates must be strictly increasing")
        if not np.all(np.isfinite(c) & (c > 0.0)):
            raise ValueError("closes must be finite and strictly positive")

    def __len__(self) -> int:
        return len(self.closes)


@dataclass(frozen=True)
class RunConfig:
    """Batch-run configuration; every field has a CLI/config-file override.

    Model parameter fields (mu3..lambda_u) are only consulted by commands
    that price or simulate from explicit parameters.  Fields that configure
    a library class take that class's default.
    """

    window: int = 1008
    step: int = 1
    annualization: float = 252.0
    damping: float = FFTGridConfig.damping
    fft_n: int = FFTGridConfig.n
    fft_dv: float = FFTGridConfig.dv
    strike_lo: float = BvixConfig.strike_lo
    strike_hi: float = BvixConfig.strike_hi
    n_strikes: int = BvixConfig.n_strikes
    seed: int = 0
    rate: float = 0.02
    rate_file: str | None = None
    n_paths: int = 1000
    mu3: float = 0.0
    sigma3: float = 0.05
    rho: float = 0.0
    lambda_t: float = 10.0
    lambda_u: float = 0.2
    s0: float = 100.0
    maturity: float = 30.0 / 365.0
    x0: float = 0.0
    horizon_days: float = 30.0

    def __post_init__(self) -> None:
        if self.rate_file == "":
            raise ValueError(
                "config key 'rate_file' is empty: name a rate CSV or leave the key out")

    def config_hash(self) -> str:
        """Hash of every field; a rate file counts by its content, not its path."""
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        if self.rate_file is not None:
            values["rate_file"] = hashlib.sha256(Path(self.rate_file).read_bytes()).hexdigest()
        payload = ";".join(f"{name}={value!r}" for name, value in values.items())
        return hashlib.sha256(payload.encode()).hexdigest()[:12]

    def provenance_line(self) -> str:
        return self._provenance

    @cached_property
    def _provenance(self) -> str:
        # worked out on first use and kept, so a rate file is read once per config
        return f"# ndigvol={__version__} config={self.config_hash()} seed={self.seed}"


def load_config_file(path: str | Path) -> dict[str, str]:
    """Flat key=value file; blank lines and #-comments ignored."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def config_from_mapping(overrides: dict[str, str]) -> RunConfig:
    kwargs: dict[str, object] = {}
    by_name = {f.name: f for f in fields(RunConfig)}
    for key, text in overrides.items():
        if key not in by_name:
            raise ValueError(f"unknown config key {key!r}")
        ftype = by_name[key].type
        try:
            kwargs[key] = {"int": int, "float": float}.get(ftype, str)(text)
        except ValueError:
            raise ValueError(f"config key {key!r} expects {ftype}, got {text!r}") from None
    return RunConfig(**kwargs)  # type: ignore[arg-type]


def _read_dated_column(
    path: str | Path, column: str, noun: str, rule: str, accept: Callable[[float], bool]
) -> tuple[list[date], list[float]]:
    """Rows of a `date,<column>` CSV: ISO-8601 dates, strictly increasing.

    Blank rows are skipped.  Every value must be a finite float that
    ``accept`` takes (``rule`` says what it requires, for the message).
    Every error names the file and, for a row, its line.
    """
    dates: list[date] = []
    values: list[float] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip().lower() for h in header[:2]] != ["date", column]:
            raise ValueError(f"{path}: expected header 'date,{column}', got {header}")
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) < 2:
                raise ValueError(f"{path}:{lineno}: expected 2 columns, got {len(row)}")
            try:
                d = date.fromisoformat(row[0].strip())
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad date {row[0]!r}: {exc}") from None
            try:
                v = float(row[1])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: bad {noun} {row[1]!r}") from None
            if not (math.isfinite(v) and accept(v)):
                raise ValueError(f"{path}:{lineno}: {noun} must be {rule}, got {row[1]}")
            if dates:
                if d == dates[-1]:
                    raise ValueError(f"{path}:{lineno}: duplicate date {d.isoformat()}")
                if d < dates[-1]:
                    raise ValueError(f"{path}:{lineno}: dates not sorted at {d.isoformat()}")
            dates.append(d)
            values.append(v)
    return dates, values


def load_prices(path: str | Path) -> PriceSeries:
    """Read a `date,close` CSV with ISO-8601 dates.

    Rejects duplicate or unsorted dates and non-positive prices, naming the
    offending line; calendar gaps are permitted but counted and logged.
    """
    dates, closes = _read_dated_column(path, "close", "price", "positive", lambda c: c > 0.0)
    if len(dates) < 2:
        raise ValueError(f"{path}: need at least 2 rows")
    gaps = sum(1 for a, b in zip(dates, dates[1:]) if (b - a).days > 1)
    if gaps:
        logger.warning("%s: %d calendar gaps in the date sequence", path, gaps)
    return PriceSeries(dates=tuple(dates), closes=np.array(closes))


def load_rates(path: str | Path) -> dict[date, float]:
    """Read a `date,rate_annual` CSV of annualized risk-free rates.

    Same row rules as ``load_prices``, except that a rate may be any finite
    value.
    """
    dates, rates = _read_dated_column(path, "rate_annual", "rate", "finite", lambda r: True)
    if not dates:
        raise ValueError(f"{path}: empty rate file")
    return dict(zip(dates, rates))


def returns_from_prices(prices: PriceSeries) -> ReturnSeries:
    """Daily log-returns; the first price row has no return."""
    return ReturnSeries(
        dates=tuple(prices.dates[1:]), returns=np.diff(np.log(prices.closes))
    )


_BLOCK_ROWS = 4096


def _atomic_write(path: str | Path, config: RunConfig, columns: dict[str, np.ndarray | list]) -> None:
    """Provenance line, header, then the rows of the equal-length 1-D columns,
    ``_BLOCK_ROWS`` at a time, so that only one block is ever held as Python objects.

    Each cell is ``str`` of its value: a float's shortest repr, an int's digits,
    a ``str`` as it is.  Cells are never quoted, so a header name, or a cell of a
    column passed as a list of ``str``, that holds a comma, a double quote or a
    line break is rejected before anything is written.
    """
    for name, col in columns.items():
        for cell in (name, *(set(col) if isinstance(col, list) else ())):
            if any(c in cell for c in ',"\r\n'):
                raise ValueError(f"column {name!r}: {cell!r} would need CSV quoting")
    cols = [np.asarray(col) for col in columns.values()]
    if len({len(col) for col in cols}) > 1:
        raise ValueError(f"columns differ in length: {[len(col) for col in cols]}")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(config.provenance_line() + "\n")
            fh.write(",".join(columns) + "\n")
            for lo in range(0, len(cols[0]), _BLOCK_ROWS):
                cells = [list(map(str, col[lo:lo + _BLOCK_ROWS].tolist())) for col in cols]
                fh.write("\n".join(map(",".join, zip(*cells))) + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_rolling_fit_csv(path: str | Path, rolling: RollingFitSeries, config: RunConfig) -> None:
    params = [r.params for r in rolling.results]
    _atomic_write(path, config, {
        "window_end": [d.isoformat() for d in rolling.window_end_dates],
        "mu3": np.asarray([p.mu3 for p in params], dtype=float),
        "sigma3": np.asarray([p.sigma3 for p in params], dtype=float),
        "rho": np.asarray([p.rho for p in params], dtype=float),
        "lambda_T": np.asarray([p.lambda_t for p in params], dtype=float),
        "lambda_U": np.asarray([p.lambda_u for p in params], dtype=float),
        "objective": np.asarray([r.objective_value for r in rolling.results], dtype=float),
        "converged": np.asarray([r.converged for r in rolling.results], dtype=int),
    })


def write_option_chain_csv(path: str | Path, chain: OptionChain, config: RunConfig) -> None:
    n_mat, n_strikes = len(chain.maturities), len(chain.strikes)
    _atomic_write(path, config, {
        "maturity_years": np.repeat(np.asarray(chain.maturities, dtype=float), n_strikes),
        "strike": np.tile(np.asarray(chain.strikes, dtype=float), n_mat),
        "call": np.asarray(chain.call_prices, dtype=float).ravel(),
        "put": np.asarray(chain.put_prices, dtype=float).ravel(),
        "implied_vol": np.asarray(chain.implied_vols, dtype=float).ravel(),
        "moneyness": np.tile(np.asarray(chain.moneyness, dtype=float), n_mat),
        "bound_flag": np.asarray(chain.bound_flags, dtype=int).ravel(),
    })


def write_volatility_csv(path: str | Path, series: VolatilitySeries, config: RunConfig) -> None:
    _atomic_write(path, config, {
        "date": [d.isoformat() for d in series.dates],
        "kind": [series.kind] * len(series.dates),
        "value_percent": np.asarray(series.values, dtype=float),
    })


def write_paths_csv(path: str | Path, paths: PathSet, config: RunConfig) -> None:
    # each path id and time is formatted once; the rows repeat the str cells
    ids = np.array(list(map(str, range(paths.n_paths))), dtype=object)
    times = np.array(list(map(str, np.asarray(paths.times, dtype=float).tolist())), dtype=object)
    _atomic_write(path, config, {
        "path_id": np.repeat(ids, len(times)),
        "time": np.tile(times, paths.n_paths),
        "x": np.asarray(paths.paths, dtype=float).ravel(),
    })
