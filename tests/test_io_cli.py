from __future__ import annotations

import json
import math
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest

from ndigvol import (
    FitResult,
    NDIGParams,
    OptionChain,
    PathSet,
    RollingFitSeries,
    VolatilitySeries,
    simulate_paths,
)
from ndigvol.cli import main
from ndigvol.io import (
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


def write_prices(path: Path, rows: list[tuple[str, float]]) -> Path:
    path.write_text("date,close\n" + "\n".join(f"{d},{c}" for d, c in rows) + "\n")
    return path


def synthetic_price_csv(path: Path, n: int, seed: int = 0) -> Path:
    p = NDIGParams(mu3=0.001, sigma3=0.03, rho=-0.002, lambda_t=4.0, lambda_u=0.5)
    x = simulate_paths(p, np.array([0.0, 1.0]), n - 1, seed=seed).paths[:, 1]
    closes = 100.0 * np.exp(np.concatenate(([0.0], np.cumsum(x))))
    d0 = date(2015, 1, 1)
    rows = [((d0 + timedelta(days=i)).isoformat(), float(c)) for i, c in enumerate(closes)]
    return write_prices(path, rows)


class TestLoadPrices:
    def test_two_rows_single_return(self, tmp_path):
        f = write_prices(tmp_path / "p.csv", [("2020-01-01", 100.0), ("2020-01-02", 110.0)])
        prices = load_prices(f)
        returns = returns_from_prices(prices)
        assert len(prices) == 2
        assert len(returns) == 1
        assert returns.returns[0] == pytest.approx(math.log(1.1))
        assert returns.dates == (date(2020, 1, 2),)

    def test_duplicate_date_names_line(self, tmp_path):
        f = write_prices(
            tmp_path / "p.csv",
            [("2020-01-01", 100.0), ("2020-01-02", 101.0), ("2020-01-02", 102.0)],
        )
        with pytest.raises(ValueError, match=r"p\.csv:4.*duplicate"):
            load_prices(f)

    def test_unsorted_dates_rejected(self, tmp_path):
        f = write_prices(
            tmp_path / "p.csv", [("2020-01-02", 100.0), ("2020-01-01", 101.0)]
        )
        with pytest.raises(ValueError, match="not sorted"):
            load_prices(f)

    def test_nonpositive_price_rejected(self, tmp_path):
        f = write_prices(tmp_path / "p.csv", [("2020-01-01", 100.0), ("2020-01-02", 0.0)])
        with pytest.raises(ValueError, match="positive"):
            load_prices(f)

    def test_bad_header_rejected(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text("day,price\n2020-01-01,5\n")
        with pytest.raises(ValueError, match="header"):
            load_prices(f)

    def test_gaps_permitted_but_logged(self, tmp_path, caplog):
        f = write_prices(
            tmp_path / "p.csv", [("2020-01-01", 100.0), ("2020-01-05", 101.0)]
        )
        with caplog.at_level("WARNING"):
            prices = load_prices(f)
        assert len(prices) == 2
        assert any("gap" in rec.message for rec in caplog.records)


def test_price_series_rejects_nonfinite_closes():
    days = (date(2020, 1, 1), date(2020, 1, 2))
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            PriceSeries(dates=days, closes=np.array([100.0, bad]))


class TestRates:
    def test_roundtrip(self, tmp_path):
        f = tmp_path / "r.csv"
        f.write_text("date,rate_annual\n2020-01-01,0.015\n2020-06-01,0.02\n")
        rates = load_rates(f)
        assert rates[date(2020, 1, 1)] == 0.015
        assert rates[date(2020, 6, 1)] == 0.02

    @pytest.mark.parametrize("rows, lineno", [
        ("2020-01-01,0.01\n2020-01-01,0.02\n", 3),
        ("2020-01-02,0.01\n2020-01-01,0.02\n", 3),
        ("2020-01-01,nan\n", 2),
        ("2020-01-01,0.01\n2020-01-02,inf\n", 3),
    ], ids=["repeated", "unsorted", "nan", "inf"])
    def test_bad_row_names_its_line(self, tmp_path, rows, lineno):
        f = tmp_path / "r.csv"
        f.write_text("date,rate_annual\n" + rows)
        with pytest.raises(ValueError, match=rf"r\.csv:{lineno}: "):
            load_rates(f)


class TestConfig:
    def test_file_plus_overrides(self, tmp_path):
        f = tmp_path / "cfg"
        f.write_text("# comment\nwindow=500\nseed=3\nrate=0.01\n")
        overrides = load_config_file(f)
        overrides["seed"] = "9"
        cfg = config_from_mapping(overrides)
        assert cfg.window == 500
        assert cfg.seed == 9
        assert cfg.rate == 0.01

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config key"):
            config_from_mapping({"not_a_key": "1"})

    def test_hash_stable_and_sensitive(self):
        a = RunConfig()
        b = RunConfig()
        c = RunConfig(seed=1)
        assert a.config_hash() == b.config_hash()
        assert a.config_hash() != c.config_hash()

    def test_default_hash_pinned(self):
        # the defaults' provenance hash; a change here changes every output's first line
        assert RunConfig().config_hash() == "484445c9e2c7"


# floats whose text is easy to get wrong: exponent forms, signed zero, the
# smallest subnormal, a missing value
EDGE = [1e-05, 1e16, -0.0, 5e-324, 0.1, math.nan]


def expected_csv(config: RunConfig, header: str, rows) -> str:
    body = "".join(",".join(row) + "\n" for row in rows)
    return f"{config.provenance_line()}\n{header}\n{body}"


class TestWriters:
    """Exact bytes of each writer on small hand-built payloads of np.float64 values."""

    config = RunConfig(seed=4)

    def test_rolling_fit(self, tmp_path):
        days = (date(2021, 3, 1), date(2021, 3, 2))
        vals = [
            (-0.0, 1e-05, 5e-324, 1e16, 0.1, 1e-05, True),
            (0.001, 0.05, -0.002, 10.0, 0.2, 3.5, False),  # not converged
        ]
        results = tuple(
            FitResult(
                params=NDIGParams(*map(np.float64, v[:5])), objective_value=np.float64(v[5]),
                term_breakdown=(0.0,) * 5, converged=v[6], evaluations=7,
            )
            for v in vals
        )
        write_rolling_fit_csv(
            tmp_path / "f.csv", RollingFitSeries(days, results, 150), self.config
        )
        assert (tmp_path / "f.csv").read_text() == expected_csv(
            self.config, "window_end,mu3,sigma3,rho,lambda_T,lambda_U,objective,converged",
            [[d.isoformat(), *(f"{x!r}" for x in v[:6]), str(int(v[6]))] for d, v in zip(days, vals)],
        )

    def test_option_chain(self, tmp_path):
        strikes, taus = [80.0, 1e16, 5e-324], [1e-05, 0.5]
        calls = np.array([[20.0, 0.0, 100.0], [21.5, 1e-05, 100.0]])
        puts = np.array([[-0.0, 1e16, 0.0], [0.1, 5e-324, 0.0]])
        vols = np.array([[math.nan, 0.8, 0.3], [0.5, math.nan, 1e-05]])
        flags = np.array([[1, 0, 0], [0, 1, 0]])
        chain = OptionChain(
            strikes=np.array(strikes), maturities=np.array(taus), call_prices=calls,
            put_prices=puts, implied_vols=vols, moneyness=np.array(strikes) / 100.0,
            bound_flags=flags, s0=100.0, r=0.02,
        )
        write_option_chain_csv(tmp_path / "c.csv", chain, self.config)
        rows = [
            [f"{tau!r}", f"{k!r}", f"{float(calls[i, j])!r}", f"{float(puts[i, j])!r}",
             f"{float(vols[i, j])!r}", f"{k / 100.0!r}", str(flags[i, j])]
            for i, tau in enumerate(taus) for j, k in enumerate(strikes)
        ]
        assert rows[0][4] == "nan" and rows[0][6] == "1"
        assert (tmp_path / "c.csv").read_text() == expected_csv(
            self.config, "maturity_years,strike,call,put,implied_vol,moneyness,bound_flag", rows
        )

    def test_volatility(self, tmp_path):
        days = tuple(date(2020, 2, 27) + timedelta(days=i) for i in range(len(EDGE)))
        series = VolatilitySeries(dates=days, values=np.array(EDGE), kind="NDIG_IT")
        write_volatility_csv(tmp_path / "v.csv", series, self.config)
        assert (tmp_path / "v.csv").read_text() == expected_csv(
            self.config, "date,kind,value_percent",
            [[d.isoformat(), "NDIG_IT", f"{x!r}"] for d, x in zip(days, EDGE)],
        )

    def test_paths(self, tmp_path):
        times = [0.0, 1.0, 2.5]
        xs = [[-0.0, 1e-05, 1e16], [5e-324, 0.1, -2.0]]
        write_paths_csv(
            tmp_path / "p.csv", PathSet(np.array(times), np.array(xs), seed=4), self.config
        )
        assert (tmp_path / "p.csv").read_text() == expected_csv(
            self.config, "path_id,time,x",
            [[str(i), f"{t!r}", f"{x!r}"] for i in range(2) for t, x in zip(times, xs[i])],
        )

    def test_failed_write_leaves_no_tmp(self, tmp_path):
        series = VolatilitySeries(dates=(date(2020, 1, 1),), values=[1.0], kind="STD")
        (tmp_path / "v.csv").mkdir()  # the final rename onto a directory fails
        with pytest.raises(OSError):
            write_volatility_csv(tmp_path / "v.csv", series, self.config)
        assert [p.name for p in tmp_path.iterdir()] == ["v.csv"]

    def test_ragged_columns_rejected(self, tmp_path):
        ragged = RollingFitSeries((date(2020, 1, 1), date(2020, 1, 2)), (), 150)
        with pytest.raises(ValueError):
            write_rolling_fit_csv(tmp_path / "r.csv", ragged, self.config)
        assert not list(tmp_path.iterdir())


class TestCli:
    def test_simulate_deterministic_bytes(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        argv = [
            "simulate", "--output-dir", str(out1), "--seed", "11",
            "--set", "n_paths=50", "--set", "horizon_days=5",
            "--set", "mu3=0.004", "--set", "sigma3=0.0551",
            "--set", "rho=-0.0008", "--set", "lambda_t=9.9293", "--set", "lambda_u=0.145",
        ]
        assert main(argv) == 0
        argv[2] = str(out2)
        assert main(argv) == 0
        a = (out1 / "paths.csv").read_bytes()
        b = (out2 / "paths.csv").read_bytes()
        assert a == b
        assert a.startswith(b"# ndigvol=")
        assert not list(out1.glob("*.tmp"))

    def test_surface_parity_residuals_zero(self, tmp_path):
        out = tmp_path / "out"
        argv = [
            "surface", "--output-dir", str(out), "--seed", "0",
            "--set", "mu3=0.004", "--set", "sigma3=0.0551",
            "--set", "rho=-0.0008", "--set", "lambda_t=9.9293", "--set", "lambda_u=0.145",
            "--set", "s0=100.0",
        ]
        assert main(argv) == 0
        rows = (out / "chain.csv").read_text().splitlines()
        assert rows[1] == "maturity_years,strike,call,put,implied_vol,moneyness,bound_flag"
        n_flagged = 0
        for line in rows[2:]:
            tau, k, c, p, iv, m, flag = line.split(",")
            resid = float(c) - float(p) - 100.0 + float(k) * math.exp(-0.02 * float(tau))
            if flag == "0":
                assert abs(resid) < 1e-10
            n_flagged += flag != "0"
        assert n_flagged == 0

    def test_missing_input_is_json_error(self, tmp_path, capsys):
        assert main(["rollfit", "--output-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        payload = json.loads(err.strip().splitlines()[-1])
        assert payload["command"] == "rollfit"
        assert "requires --input" in payload["error"]

    def test_missing_rate_file_fails_before_the_fit(self, tmp_path, capsys, monkeypatch):
        import ndigvol.cli as cli

        def no_fit(*args, **kwargs):
            raise AssertionError("rolling_fit reached")

        monkeypatch.setattr(cli, "rolling_fit", no_fit)
        prices = synthetic_price_csv(tmp_path / "p.csv", 160)
        argv = [
            "rollfit", "--input", str(prices), "--output-dir", str(tmp_path / "out"),
            "--window", "150", "--rate-file", str(tmp_path / "missing.csv"),
        ]
        assert main(argv) == 2
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert "missing.csv" in payload["error"]
        assert not (tmp_path / "out").exists()

    def test_infeasible_damping_rejected_before_compute(self, tmp_path):
        argv = [
            "price", "--output-dir", str(tmp_path), "--damping", "50.0",
            "--set", "mu3=0.004", "--set", "sigma3=0.0551",
            "--set", "rho=-0.0008", "--set", "lambda_t=9.9293", "--set", "lambda_u=0.145",
        ]
        assert main(argv) == 2
        assert not list(tmp_path.glob("*.csv"))

    def test_histvol_row_count(self, tmp_path):
        prices = synthetic_price_csv(tmp_path / "p.csv", 260)
        out = tmp_path / "out"
        argv = [
            "histvol", "--input", str(prices), "--output-dir", str(out),
            "--window", "250",
        ]
        assert main(argv) == 0
        rows = (out / "std.csv").read_text().splitlines()
        # 259 returns, window 250 -> 10 windows; +2 header lines
        assert len(rows) == 12
        assert rows[1] == "date,kind,value_percent"
        assert rows[2].split(",")[1] == "STD"

    def test_pipeline_three_windows_and_determinism(self, tmp_path):
        prices = synthetic_price_csv(tmp_path / "p.csv", 153)
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            argv = [
                "pipeline", "--input", str(prices), "--output-dir", str(out),
                "--window", "150", "--seed", "3",
                "--set", "fft_n=2048",
            ]
            assert main(argv) == 0
            outs.append(out)
        expected = [
            "rolling_params.csv", "std.csv", "ndig_it.csv", "bvix.csv",
            "std_norm.csv", "ndig_it_norm.csv", "bvix_norm.csv",
        ]
        for name in expected:
            a, b = (outs[0] / name).read_bytes(), (outs[1] / name).read_bytes()
            assert a == b, name
        for name in ("std.csv", "ndig_it.csv", "bvix.csv"):
            rows = (outs[0] / name).read_text().splitlines()
            assert len(rows) == 2 + 3, name  # 152 returns, window 150 -> 3 windows

    def test_pipeline_rate_file(self, tmp_path, capsys):
        prices = synthetic_price_csv(tmp_path / "p.csv", 153)
        names = [
            "rolling_params.csv", "std.csv", "ndig_it.csv", "bvix.csv",
            "std_norm.csv", "ndig_it_norm.csv", "bvix_norm.csv",
        ]

        def run(tag: str, rates: str) -> tuple[int, Path]:
            (tmp_path / tag).mkdir()
            rate_file = tmp_path / tag / "r.csv"
            rate_file.write_text("date,rate_annual\n" + rates)
            out = tmp_path / tag / "out"
            argv = [
                "pipeline", "--input", str(prices), "--output-dir", str(out),
                "--window", "150", "--seed", "3", "--rate-file", str(rate_file),
                "--set", "fft_n=2048",
            ]
            return main(argv), out

        rates = "2015-01-01,0.01\n2015-05-31,0.03\n"
        (code_a, a), (code_b, b) = run("a", rates), run("b", rates)
        assert code_a == code_b == 0
        for name in names:  # the same rates in another directory: the same bytes
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

        code_c, c = run("c", rates.replace("0.03", "0.04"))
        assert code_c == 0
        provenance_a, provenance_c = (
            (out / "rolling_params.csv").read_text().split("\n", 1)[0] for out in (a, c)
        )
        assert provenance_a != provenance_c  # same version and seed: the config= hash

        capsys.readouterr()
        code_d, d = run("d", "2015-01-01,0.01\n2015-01-01,0.02\n")
        assert code_d == 2
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert "r.csv:3: duplicate date" in payload["error"]
        assert not d.exists()


class TestMoreCommands:
    def test_fit_command_single_row(self, tmp_path):
        prices = synthetic_price_csv(tmp_path / "p.csv", 300, seed=2)
        out = tmp_path / "out"
        argv = [
            "fit", "--input", str(prices), "--output-dir", str(out),
        ]
        assert main(argv) == 0
        rows = (out / "fit_params.csv").read_text().splitlines()
        assert rows[1].startswith("window_end,mu3,sigma3,rho,lambda_T,lambda_U")
        assert len(rows) == 3
        fields = rows[2].split(",")
        assert fields[0] == "2015-10-27"  # last return date of a 300-row file
        assert float(fields[2]) > 0.0  # sigma3

    def test_price_command_single_maturity(self, tmp_path):
        out = tmp_path / "out"
        argv = [
            "price", "--output-dir", str(out),
            "--set", "mu3=0.004", "--set", "sigma3=0.0551",
            "--set", "rho=-0.0008", "--set", "lambda_t=9.9293", "--set", "lambda_u=0.145",
            "--set", "maturity=0.1", "--set", "n_strikes=11",
        ]
        assert main(argv) == 0
        rows = (out / "chain.csv").read_text().splitlines()
        assert len(rows) == 2 + 11
        assert all(row.split(",")[0] == "0.1" for row in rows[2:])

    def test_itvol_and_bvix_commands(self, tmp_path):
        prices = synthetic_price_csv(tmp_path / "p.csv", 158, seed=4)
        out = tmp_path / "out"
        common = [
            "--input", str(prices), "--output-dir", str(out),
            "--window", "150",
            "--set", "fft_n=2048",
        ]
        assert main(["itvol", *common]) == 0
        assert main(["bvix", *common]) == 0
        it_rows = (out / "ndig_it.csv").read_text().splitlines()
        bv_rows = (out / "bvix.csv").read_text().splitlines()
        assert len(it_rows) == 2 + 8
        assert len(bv_rows) == 2 + 8
        assert it_rows[2].split(",")[1] == "NDIG_IT"
        assert bv_rows[2].split(",")[1] == "BVIX"

    def test_pipeline_matches_individual_commands(self, tmp_path):
        # no hidden state: the pipeline's files equal those of the
        # one-command runs with identical configuration
        prices = synthetic_price_csv(tmp_path / "p.csv", 156, seed=7)
        common = [
            "--input", str(prices), "--window", "150", "--seed", "3",
            "--set", "fft_n=2048",
        ]
        assert main(["pipeline", "--output-dir", str(tmp_path / "pipe"), *common]) == 0
        for cmd, name in (("histvol", "std.csv"), ("itvol", "ndig_it.csv"),
                          ("bvix", "bvix.csv"), ("rollfit", "rolling_params.csv")):
            assert main([cmd, "--output-dir", str(tmp_path / cmd), *common]) == 0
            assert (tmp_path / "pipe" / name).read_bytes() == (
                tmp_path / cmd / name
            ).read_bytes(), name
