import dataclasses
import json
import math

import numpy as np
import pytest

import dpquant.bounds
import dpquant.cli as cli
from dpquant.bounds import dp_rdf_gaussian, rdf_gaussian
from dpquant.cli import (EXIT_BOUND, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE,
                         UsageError, _LATTICES, _SOURCES, _build, _build_scheme,
                         _parse_grid, main)
from dpquant.harness import evaluate
from dpquant.lattice import hexagonal, scaled_integer
from dpquant.prob import Family, gaussian, laplace, uniform
from dpquant.schemes import (FAMILIES, AwgnOracle, ResampleDpq, SimpleDpq,
                             TransformDpq)


def _rows(path):
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    return header, [dict(zip(header, l.split(","))) for l in lines[1:]]


def _source(spec):
    return _build("source", spec, _SOURCES)


def _lattice(spec):
    return _build("lattice", spec, _LATTICES)


class TestParsing:
    def test_source_gaussian(self):
        m = _source("gaussian:var=4,mean=1")
        assert m.family is Family.GAUSSIAN and m.params == (1.0, 4.0)

    def test_source_pmf(self):
        p = _source("pmf:0.5,0.5")
        assert p.dtype == float and np.array_equal(p, [0.5, 0.5])

    def test_source_bad(self):
        with pytest.raises(UsageError):
            _source("cauchy:scale=1")
        with pytest.raises(UsageError):
            _source("gaussian:var")

    def test_lattice(self):
        lat = _lattice("cube:step=0.1,dim=3")
        assert lat.dim == 3 and lat.step == pytest.approx(0.1)
        assert _lattice("hex:scale=0.5").kind == "hexagonal"
        with pytest.raises(UsageError):
            _lattice("cube:size=1")

    def test_grid(self):
        g = _parse_grid("0:1:5")
        assert len(g) == 5 and g[0] == 0 and g[-1] == 1
        assert list(_parse_grid("0.5,2")) == [0.5, 2.0]
        with pytest.raises(UsageError):
            _parse_grid("a:b:c")
        with pytest.raises(UsageError, match="empty grid"):
            _parse_grid("0:1:0")


class TestBounds:
    def test_gaussian_curves(self, tmp_path):
        out = tmp_path / "b.csv"
        assert main(["bounds", "--source", "gaussian:var=1",
                     "--dgrid", "0.01:2:200", "--out", str(out)]) == EXIT_OK
        header, rows = _rows(out)
        assert header == ["D", "rate_nats", "rate_bits", "source"]
        dp = [r for r in rows if r["source"] == "dp_rdf"]
        assert len(dp) == 200
        assert float(dp[-1]["D"]) == 2.0 and float(dp[-1]["rate_nats"]) == 0.0
        # config echoed for reproducibility
        assert any(l.startswith("# source=") for l in out.read_text().splitlines())

    def test_units_bits(self, tmp_path):
        # every row carries both units
        out = tmp_path / "b.csv"
        assert main(["bounds", "--dgrid", "0.5,1", "--out", str(out)]) == EXIT_OK
        _, rows = _rows(out)
        assert rows
        for r in rows:
            assert float(r["rate_bits"]) == pytest.approx(
                float(r["rate_nats"]) / math.log(2), rel=1e-8)

    def test_discrete_pmf_curve(self, tmp_path):
        out = tmp_path / "pmf.csv"
        assert main(["bounds", "--source", "pmf:0.5,0.5",
                     "--out", str(out)]) == EXIT_OK
        _, rows = _rows(out)
        near = min(rows, key=lambda r: abs(float(r["D"]) - 0.11))
        # equiprobable binary with Hamming cost: rate = ln2 - Hb(D)
        hb = -(0.11 * math.log(0.11) + 0.89 * math.log(0.89))
        assert abs(float(near["D"]) - 0.11) < 0.02
        assert float(near["rate_nats"]) == pytest.approx(math.log(2) - hb,
                                                         abs=0.02)


    def test_ternary_pmf_curve(self, tmp_path):
        # the scaling loop this solver replaced stalled at a residual of
        # 2e-7 on this pmf and exited 4
        out = tmp_path / "pmf3.csv"
        assert main(["bounds", "--source", "pmf:0.2,0.3,0.5",
                     "--out", str(out)]) == EXIT_OK
        _, rows = _rows(out)
        assert len(rows) == 64
        curve = sorted((float(r["D"]), float(r["rate_nats"])) for r in rows)
        rates = [r for _, r in curve]
        assert all(r1 >= r2 - 1e-12 for r1, r2 in zip(rates, rates[1:]))


class TestEval:
    def test_simple_mse(self, tmp_path):
        out = tmp_path / "r.json"
        assert main(["eval", "--scheme", "simple", "--source", "gaussian:var=1",
                     "-n", "100000", "--seed", "7", "--out", str(out)]) == EXIT_OK
        rep = json.loads(out.read_text())
        assert rep["mse_per_dim"] == pytest.approx(2.0, abs=0.05)
        assert rep["config"]["seed"] == "7"

    def test_transform_ks_and_bound(self, tmp_path):
        out = tmp_path / "r.json"
        assert main(["eval", "--scheme", "transform", "--lattice",
                     "cube:step=0.1", "-n", "20000", "--seed", "0",
                     "--check-bound", "--out", str(out)]) == EXIT_OK
        rep = json.loads(out.read_text())
        assert all(p for _, p in rep["ks_per_axis"])

    def test_awgn_bands(self, tmp_path):
        out = tmp_path / "r.json"
        assert main(["eval", "--scheme", "awgn:eta2=1", "-n", "1000000",
                     "--seed", "0", "--out", str(out)]) == EXIT_OK
        rep = json.loads(out.read_text())
        assert rep["rate_nats_per_dim"] == pytest.approx(0.3466, abs=1e-4)
        assert rep["rate_bits_per_dim"] == rep["rate_nats_per_dim"] / math.log(2)
        assert rep["mse_per_dim"] == pytest.approx(0.5858, abs=0.005)

    def test_lossless_check_bound_exit(self, tmp_path, capsys):
        # the identity map's rate and the DP-RDF at D = 0 are both +inf: the
        # margin was inf - inf = nan, and the check failed with exit 3
        out = tmp_path / "r.json"
        assert main(["eval", "--scheme", "awgn:eta2=0", "-n", "10000",
                     "--check-bound", "--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().err == ""

    def test_lossless_report_is_strict_json(self, tmp_path):
        # both rates were written as the bare token Infinity, which is not
        # JSON (RFC 8259); an unbounded rate is null
        def refuse(token):
            raise ValueError(f"not JSON: {token}")

        out = tmp_path / "lossless.json"
        assert main(["eval", "--scheme", "awgn:eta2=0", "-n", "10000",
                     "--out", str(out)]) == EXIT_OK
        rep = json.loads(out.read_text(), parse_constant=refuse)
        assert rep["rate_nats_per_dim"] is None
        assert rep["rate_bits_per_dim"] is None

    def test_non_finite_report_value_exit(self, tmp_path, monkeypatch):
        # any non-finite value but an unbounded rate is a numerical failure,
        # and no report is written
        real = cli.evaluate
        monkeypatch.setattr(cli, "evaluate", lambda *a, **k: dataclasses.replace(
            real(*a, **k), mse_se=math.nan))
        out = tmp_path / "r.json"
        assert main(["eval", "--scheme", "simple", "-n", "10000",
                     "--out", str(out)]) == EXIT_NUMERIC
        assert not out.exists()

    def test_check_bound_failure_exit(self, tmp_path, monkeypatch):
        import dpquant.cli as cli
        monkeypatch.setattr(cli, "compare_to_bound",
                            lambda rep: {"above_bound": False,
                                         "margin_nats": -1.0,
                                         "tolerance_nats": 0.0})
        out = tmp_path / "r.json"
        assert main(["eval", "--scheme", "simple", "-n", "10000",
                     "--check-bound", "--out", str(out)]) == EXIT_BOUND

    def test_numeric_failure_exit(self, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise RuntimeError("quadrature failed")

        monkeypatch.setattr(cli, "evaluate", fail)
        out = tmp_path / "r.json"
        assert main(["eval", "--scheme", "simple", "-n", "10000",
                     "--out", str(out)]) == EXIT_NUMERIC

    def test_resample_step_beyond_index_range_exit(self, tmp_path, capsys):
        # printed numpy's "invalid value encountered in cast" warning, then
        # "zero-probability base cell encountered"
        out = tmp_path / "r.json"
        assert main(["eval", "--scheme", "resample:step=1e-300", "-n", "10000",
                     "--out", str(out)]) == EXIT_NUMERIC
        assert "2**51" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["uniform:a=0,b=1e308",
                                        "laplace:scale=1e200",
                                        "gaussian:var=1e308"])
    def test_source_too_wide_for_float64_exit(self, tmp_path, capsys, source):
        # an OverflowError, of the uniform's variance (b - a)**2 or of the
        # harness's moment merge, left a traceback and exit 1.  numpy's
        # overflow and invalid-value warnings on the way are printed in a
        # shell; here they would fail the test first.
        out = tmp_path / "r.json"
        with np.errstate(over="ignore", invalid="ignore"):
            rc = main(["eval", "-n", "10000", "--source", source,
                       "--out", str(out)])
        assert rc == EXIT_NUMERIC
        assert not out.exists()
        assert "numerical failure" in capsys.readouterr().err


class TestSweep:
    def test_deterministic_and_above_bound(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sweep", "--family", "transform", "--grid", "0.5,2",
                "-n", "20000", "--seed", "3"]
        assert main(args + ["--out", str(a)]) == EXIT_OK
        assert main(args + ["--out", str(b)]) == EXIT_OK
        assert a.read_bytes().replace(b"a.csv", b"") == \
            b.read_bytes().replace(b"b.csv", b"")
        header, rows = _rows(a)
        assert "dp_rdf_nats" in header and "rdf_nats" in header
        for r in rows:
            slack = 3 * (float(r["rate_se"]) + float(r["mse_se"]))
            assert float(r["rate_nats"]) >= float(r["dp_rdf_nats"]) - slack

    def test_config_file_and_flag_override(self, tmp_path):
        cfgf = tmp_path / "run.cfg"
        cfgf.write_text("# a comment\n\nfamily=simple\nn=20000\n  # indented\n"
                        "seed=9\nout=ignored.csv\n")
        out = tmp_path / "s.csv"
        assert main(["sweep", "--config", str(cfgf), "--grid", "1",
                     "--out", str(out)]) == EXIT_OK
        text = out.read_text()
        assert "# seed=9" in text and "# family=simple" in text
        _, rows = _rows(out)
        assert rows[0]["scheme"] == "SimpleDpq"
        assert float(rows[0]["rate_nats"]) == 0.0


class TestCsv:
    def test_curve_csv(self, tmp_path):
        out = tmp_path / "curves.csv"
        assert main(["bounds", "--dgrid", "0.5,2", "--out", str(out)]) == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[:4] == ["# dgrid=0.5,2", f"# out={out}",
                             "# source=gaussian:var=1",
                             "D,rate_nats,rate_bits,source"]
        body = [l.split(",") for l in lines[4:]]
        # each D has 2 curves: dp_rdf and rdf, which is a Gaussian's SLB
        assert len(body) == 4
        assert [r[3] for r in body] == ["dp_rdf", "rdf"] * 2
        dp_row = next(r for r in body if r[0] == "0.5" and r[3] == "dp_rdf")
        assert float(dp_row[1]) == pytest.approx(
            -0.5 * math.log(0.5 - 0.0625), rel=1e-9)
        assert float(dp_row[2]) == pytest.approx(float(dp_row[1]) / math.log(2),
                                                 rel=1e-8)

    def test_reports_csv(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--grid", "0.5", "-n", "20000", "--seed", "7",
                     "--out", str(out)]) == EXIT_OK
        lines = [l for l in out.read_text().splitlines()
                 if not l.startswith("#")]
        assert lines[0] == ("scheme,param,n,seed,rate_nats,rate_se,mse,mse_se,"
                            "ks_max,ks_pass,dp_rdf_nats,rdf_nats")
        cells = lines[1].split(",")
        assert cells[:4] == ["TransformDpq", "0.5", "20000", "7"]
        rep = evaluate(TransformDpq(gaussian(0, 1), 0, scaled_integer(0.5)),
                       20_000, seed=7)
        assert float(cells[4]) == pytest.approx(rep.rate_nats_per_dim, rel=1e-9)
        assert cells[9] == "1"

    @pytest.mark.parametrize("source", ["uniform:a=2,b=3", "laplace:scale=1"],
                             ids=["uniform", "laplace"])
    def test_reports_csv_reference_empty_for_non_gaussian(self, tmp_path,
                                                          source):
        # there is no closed-form DP-RDF to print for these families
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--family", "simple", "--grid", "1", "-n", "10000",
                     "--source", source, "--out", str(out)]) == EXIT_OK
        _, rows = _rows(out)
        assert len(rows[0]) == 12
        assert rows[0]["dp_rdf_nats"] == rows[0]["rdf_nats"] == ""

    def test_reports_csv_reference_gaussian_variance(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--family", "simple", "--grid", "1", "-n", "10000",
                     "--source", "gaussian:mean=1,var=4",
                     "--out", str(out)]) == EXIT_OK
        _, rows = _rows(out)
        mse = float(rows[0]["mse"])
        assert float(rows[0]["dp_rdf_nats"]) == pytest.approx(
            dp_rdf_gaussian(4.0, mse), rel=1e-9)
        assert float(rows[0]["rdf_nats"]) == pytest.approx(
            rdf_gaussian(4.0, mse), rel=1e-9)


class TestUsageErrors:
    def test_config_key_twice_exit(self, tmp_path, capsys):
        # ran with the last value, seed 2
        cfgf = tmp_path / "run.cfg"
        cfgf.write_text("seed=1\nseed=2\n")
        out = tmp_path / "r.json"
        assert main(["eval", "--scheme", "simple", "-n", "10000", "--config",
                     str(cfgf), "--out", str(out)]) == EXIT_USAGE
        assert not out.exists()
        assert "seed given twice" in capsys.readouterr().err

    def test_bad_config_line_exit(self, tmp_path, capsys):
        cfgf = tmp_path / "run.cfg"
        cfgf.write_text("seed=1\nn 20000\n")
        out = tmp_path / "r.json"
        assert main(["eval", "--scheme", "simple", "-n", "10000", "--config",
                     str(cfgf), "--out", str(out)]) == EXIT_USAGE
        assert not out.exists()
        assert "bad config line: 'n 20000'" in capsys.readouterr().err

    def test_bad_source_exit(self, tmp_path):
        assert main(["bounds", "--source", "cauchy:x=1",
                     "--out", str(tmp_path / "x.csv")]) == EXIT_USAGE

    def test_unknown_flag_exit(self):
        assert main(["bounds", "--frobnicate"]) == EXIT_USAGE

    def test_missing_subcommand_exit(self):
        assert main([]) == EXIT_USAGE

    def test_discrete_bounds_refuse_dgrid(self, tmp_path):
        # the discrete solver traces its own lambda grid
        assert main(["bounds", "--source", "pmf:0.5,0.5", "--dgrid", "0.1:0.4:4",
                     "--out", str(tmp_path / "x.csv")]) == EXIT_USAGE

    @pytest.mark.parametrize("scheme", ["resample:step", "resample:step=abc",
                                        "awgn:eta2=-1", "awgn:step=1", "nope"])
    def test_bad_scheme_spec_exit(self, tmp_path, scheme):
        assert main(["eval", "--scheme", scheme, "-n", "10000",
                     "--out", str(tmp_path / "r.json")]) == EXIT_USAGE

    def test_unknown_sweep_family_exit(self, tmp_path):
        assert main(["sweep", "--family", "nope", "--grid", "1", "-n", "10000",
                     "--out", str(tmp_path / "s.csv")]) == EXIT_USAGE

    def test_bad_sweep_grid_value_exit(self, tmp_path):
        # refused when the schemes are built, before any point is evaluated
        assert main(["sweep", "--family", "awgn", "--grid", "0.5,-1",
                     "-n", "10000", "--out", str(tmp_path / "s.csv")]) == EXIT_USAGE
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("source", ["uniform:a=2,b=3", "laplace:scale=2"])
    def test_bounds_non_gaussian_source_exit(self, tmp_path, source):
        # no closed-form curves: the Gaussian ones would be written for a
        # variance read off the wrong parameter
        out = tmp_path / "b.csv"
        assert main(["bounds", "--source", source, "--dgrid", "0.05",
                     "--out", str(out)]) == EXIT_USAGE
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["bounds", "--units", "bits"],
        ["bounds", "--seed", "3"],
        ["bounds", "--workers", "2"],
        # a pmf's curve is under Hamming cost, the one table: no --cost
        ["bounds", "--cost", "frobnicate"],
        ["bounds", "--cost", "hamming"],
        ["bounds", "--source", "pmf:0.5,0.5", "--cost", "hamming"],
        ["sweep", "--units", "bits", "--family", "simple", "--grid", "1",
         "-n", "10000"],
        # the report carries the rate in nats and in bits
        ["eval", "--units", "bits", "--scheme", "simple", "-n", "10000"],
    ], ids=["bounds-units", "bounds-seed", "bounds-workers", "bounds-cost",
            "bounds-cost-gaussian", "bounds-cost-pmf", "sweep-units",
            "eval-units"])
    def test_unused_option_exit(self, tmp_path, argv):
        out = tmp_path / "x.out"
        assert main(argv + ["--out", str(out)]) == EXIT_USAGE
        assert not out.exists()

    @pytest.mark.parametrize("argv,config", [
        (["eval", "-n", "abc"], None),
        (["eval", "--workers", "x"], None),
        (["eval", "--seed", "x"], None),
        (["sweep", "-n", "1e4"], None),
        (["eval"], "n=abc"),
        (["eval"], "workers=x"),
        (["sweep"], "seed=x"),
    ], ids=["eval-n", "eval-workers", "eval-seed", "sweep-n", "config-n",
            "config-workers", "config-seed"])
    def test_non_integer_option_exit(self, tmp_path, argv, config):
        if config is not None:
            cfgf = tmp_path / "run.cfg"
            cfgf.write_text(config + "\n")
            argv = argv + ["--config", str(cfgf)]
        out = tmp_path / "x.out"
        assert main(argv + ["--grid", "1"] * (argv[0] == "sweep")
                    + ["--out", str(out)]) == EXIT_USAGE
        assert not out.exists()

    @pytest.mark.parametrize("argv,config", [
        (["eval", "--workers", "0"], None),
        (["eval", "--workers", "-1"], None),
        (["sweep", "--workers", "0"], None),
        (["eval"], "workers=0"),
        (["sweep"], "workers=-1"),
    ], ids=["eval-zero", "eval-negative", "sweep-zero", "config-eval-zero",
            "config-sweep-negative"])
    def test_workers_below_one_exit(self, tmp_path, argv, config):
        if config is not None:
            cfgf = tmp_path / "run.cfg"
            cfgf.write_text(config + "\n")
            argv = argv + ["--config", str(cfgf)]
        out = tmp_path / "x.out"
        assert main(argv + ["--scheme", "simple"] * (argv[0] == "eval")
                    + ["--family", "simple", "--grid", "1"] * (argv[0] == "sweep")
                    + ["-n", "10000", "--out", str(out)]) == EXIT_USAGE
        assert not out.exists()

    @pytest.mark.parametrize("argv,key", [
        (["sweep", "--family", "simple", "--grid", "1", "-n", "10000"], "units"),
        (["sweep", "--family", "simple", "--grid", "1", "-n", "10000"], "lattice"),
        (["eval", "--scheme", "simple", "-n", "10000"], "family"),
        (["eval", "--scheme", "simple", "-n", "10000"], "dgrid"),
        (["bounds"], "seed"),
        (["bounds"], "workers"),
        (["bounds"], "units"),
        (["bounds"], "n"),
        (["eval", "--scheme", "simple", "-n", "10000"], "units"),
    ], ids=["sweep-units", "sweep-lattice", "eval-family", "eval-dgrid",
            "bounds-seed", "bounds-workers", "bounds-units", "bounds-n",
            "eval-units"])
    def test_unread_config_key_exit(self, tmp_path, capsys, argv, key):
        cfgf = tmp_path / "run.cfg"
        value = {"units": "bits", "lattice": "hex:scale=1",
                 "family": "simple", "dgrid": "0.1"}.get(key, "2")
        cfgf.write_text(f"{key}={value}\n")
        out = tmp_path / "x.out"
        assert main(argv + ["--config", str(cfgf), "--out", str(out)]) == EXIT_USAGE
        assert not out.exists()
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [
        ("check_bound", "off"), ("check_bound", "no"), ("check_bound", "False"),
    ], ids=["check-bound-off", "check-bound-no", "check-bound-False"])
    def test_bad_config_value_exit(self, tmp_path, capsys, key, value):
        # check_bound=off, no or False turned the bound check on
        cfgf = tmp_path / "run.cfg"
        cfgf.write_text(f"{key}={value}\n")
        out = tmp_path / "r.json"
        assert main(["eval", "--scheme", "simple", "-n", "10000", "--config",
                     str(cfgf), "--out", str(out)]) == EXIT_USAGE
        assert not out.exists()
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("value,on", [("0", False), ("false", False),
                                          ("", False), ("1", True),
                                          ("true", True)])
    def test_check_bound_config_values(self, tmp_path, capsys, value, on):
        # a check that is on refuses the uniform source
        cfgf = tmp_path / "run.cfg"
        cfgf.write_text(f"check_bound={value}\n")
        rc = main(["eval", "--scheme", "simple", "-n", "10000", "--config",
                   str(cfgf), "--source", "uniform:a=0,b=1",
                   "--out", str(tmp_path / "r.json")])
        assert rc == (EXIT_USAGE if on else EXIT_OK)
        assert ("needs a Gaussian source" in capsys.readouterr().err) == on

    def test_missing_config_file_exit(self, tmp_path, capsys):
        cfgf = tmp_path / "absent.cfg"
        assert main(["bounds", "--config", str(cfgf),
                     "--out", str(tmp_path / "b.csv")]) == EXIT_USAGE
        assert "absent.cfg" in capsys.readouterr().err

    def test_config_defaults_stay_on_their_subcommand(self):
        parser, commands = cli.build_parser()
        commands["eval"].set_defaults(seed="5", source="uniform:a=0,b=1")
        args = parser.parse_args(["sweep"])
        assert args.seed == 0 and args.source == "gaussian:var=1"
        assert parser.parse_args(["eval"]).seed == 5

    def test_check_bound_non_gaussian_exit(self, tmp_path):
        out = tmp_path / "r.json"
        assert main(["eval", "--scheme", "simple", "--source", "uniform:a=0,b=1",
                     "-n", "10000", "--check-bound", "--out", str(out)]) == EXIT_USAGE
        assert not out.exists()


class TestSchemeSpecs:
    def test_transform_lattice_sets_source_dim(self, tmp_path):
        out = tmp_path / "r.json"
        assert main(["eval", "--scheme", "transform", "--lattice",
                     "cube:step=0.5,dim=2", "-n", "10000",
                     "--out", str(out)]) == EXIT_OK
        rep = json.loads(out.read_text())
        assert rep["scheme"]["source"]["dim"] == 2
        assert rep["scheme"]["lattice"]["step"] == 0.5
        assert len(rep["ks_per_axis"]) == 2 and "param" not in rep

    def test_every_family_has_a_spec(self):
        # the CLI's scheme grammar names the families that schemes.build makes
        assert list(cli._SCHEMES) == list(FAMILIES)

    def test_defaults_and_reported_param(self, tmp_path):
        out = tmp_path / "r.json"
        assert main(["eval", "--scheme", "resample", "-n", "10000",
                     "--out", str(out)]) == EXIT_OK
        rep = json.loads(out.read_text())
        assert rep["scheme"]["step"] == 0.05 and "param" not in rep

    @pytest.mark.parametrize("scheme,lattice", [
        ("transform", "cube:step=0.1"), ("simple", None), ("resample", None),
        ("awgn", None)])
    def test_lattice_echoed_for_the_transform_only(self, tmp_path, scheme,
                                                    lattice):
        # every report echoed the default cube:step=0.1, read or not
        out = tmp_path / "r.json"
        assert main(["eval", "--scheme", scheme, "-n", "10000",
                     "--out", str(out)]) == EXIT_OK
        assert json.loads(out.read_text())["config"].get("lattice") == lattice

    @pytest.mark.parametrize("scheme,flag,config", [
        ("resample:step=0.1", "hex:scale=1", None),
        ("simple", "cube:step=0.1", None),
        ("awgn", None, "lattice=cube:step=0.5\n"),
        ("resample", None, "lattice=\n"),
    ], ids=["resample-flag", "simple-default-flag", "awgn-config",
            "resample-empty-config"])
    def test_lattice_off_the_transform_exit(self, tmp_path, capsys, scheme,
                                            flag, config):
        # exited 0, and the report echoed a lattice that no stage read
        argv = ["eval", "--scheme", scheme, "-n", "10000"]
        if flag is not None:
            argv += ["--lattice", flag]
        if config is not None:
            cfgf = tmp_path / "run.cfg"
            cfgf.write_text(config)
            argv += ["--config", str(cfgf)]
        out = tmp_path / "r.json"
        assert main(argv + ["--out", str(out)]) == EXIT_USAGE
        assert not out.exists()
        assert "takes no lattice" in capsys.readouterr().err


# Every source, lattice and scheme spec that README and these tests use, with
# the object it has always built; a pmf builds its validated float array.
SOURCE_SPECS = [
    ("gaussian:var=1", gaussian(0.0, 1.0)),
    ("gaussian:var=4,mean=1", gaussian(1.0, 4.0)),
    ("gaussian:mean=-2", gaussian(-2.0, 1.0)),
    ("gaussian:", gaussian(0.0, 1.0)),
    ("uniform:a=0,b=1", uniform(0.0, 1.0)),
    ("uniform:a=2,b=3", uniform(2.0, 3.0)),
    ("laplace:scale=2", laplace(0.0, 2.0)),
    ("laplace:loc=0,scale=1", laplace(0.0, 1.0)),
    ("pmf:0.5,0.5", np.array([0.5, 0.5])),
    ("pmf:0.2,0.3,0.5", np.array([0.2, 0.3, 0.5])),
]
LATTICE_SPECS = [
    ("cube:step=0.1", "scaled_integer", 0.1, 1),
    ("cube:step=0.5,dim=2", "scaled_integer", 0.5, 2),
    ("cube:step=0.1,dim=3", "scaled_integer", 0.1, 3),
    ("hex:scale=0.5", "hexagonal", 0.5, 2),
    ("hex:scale=1", "hexagonal", 1.0, 2),
    ("hex", "hexagonal", 1.0, 2),
]
SCHEME_SPECS = [  # (scheme, lattice, the scheme built on gaussian:var=1, seed 5)
    ("simple", None, SimpleDpq(gaussian(), 5)),
    ("resample", None, ResampleDpq(gaussian(), 5, 0.05)),
    ("resample:step=0.2", None, ResampleDpq(gaussian(), 5, 0.2)),
    ("awgn", None, AwgnOracle(gaussian(), 5, 1.0)),
    ("awgn:eta2=1", None, AwgnOracle(gaussian(), 5, 1.0)),
    ("transform", "cube:step=0.1",
     TransformDpq(gaussian(), 5, scaled_integer(0.1))),
    ("transform", "hex:scale=0.5",
     TransformDpq(gaussian(dim=2), 5, hexagonal(0.5))),
]


class TestSpecGrammar:
    @pytest.mark.parametrize("spec,model", SOURCE_SPECS,
                             ids=[s for s, _ in SOURCE_SPECS])
    def test_source_builds_same_model(self, spec, model):
        got = _source(spec)
        assert type(got) is type(model)
        if isinstance(model, np.ndarray):
            assert got.dtype == float and np.array_equal(got, model)
        else:
            assert got == model
            assert (got.family, got.params, got.dim) == \
                (model.family, model.params, model.dim)

    @pytest.mark.parametrize("spec,kind,step,dim", LATTICE_SPECS,
                             ids=[s for s, *_ in LATTICE_SPECS])
    def test_lattice_builds_same_lattice(self, spec, kind, step, dim):
        lat = _lattice(spec)
        assert (lat.kind, lat.step, lat.dim) == (kind, step, dim)
        want = scaled_integer(step, dim) if kind == "scaled_integer" \
            else hexagonal(step)
        assert np.array_equal(lat.generator, want.generator)

    @pytest.mark.parametrize("spec,lattice,want", SCHEME_SPECS,
                             ids=[f"{s}-{l}" for s, l, _ in SCHEME_SPECS])
    def test_scheme_builds_same_scheme(self, spec, lattice, want):
        cfg = {"scheme": spec, "source": "gaussian:var=1", "lattice": lattice}
        scheme = _build_scheme(cfg, 5)
        assert type(scheme) is type(want) and scheme == want

    @pytest.mark.parametrize("argv,key", [
        (["bounds", "--source", "gaussian:variance=4"], "variance"),
        (["eval", "--scheme", "simple", "--source", "uniform:a=0,b=2,mean=5"],
         "mean"),
        (["sweep", "--family", "simple", "--grid", "1",
          "--source", "laplace:scal=2"], "scal"),
        (["eval", "--scheme", "transform", "--lattice", "hex:scal=0.3"], "scal"),
        (["eval", "--scheme", "transform", "--lattice", "cube:step=0.5,dims=2"],
         "dims"),
        (["eval", "--scheme", "transform", "--lattice", "cube:dim=2"], "step"),
        (["eval", "--scheme", "transform", "--lattice", "tri:scale=1"], "tri"),
        (["eval", "--scheme", "simple:step=1"], "step"),
        (["eval", "--scheme", "simple", "--source", "gaussian:var=nan"], "nan"),
        (["eval", "--scheme", "transform", "--lattice", "cube:step=nan"], "nan"),
        (["eval", "--scheme", "awgn:eta2=inf"], "inf"),
        (["bounds", "--source", "pmf:nan,0.5"], "nan"),
        # a key given twice: the last value won, and the echoed config
        # showed both
        (["bounds", "--source", "gaussian:var=1,var=4", "--dgrid", "1"],
         "var twice"),
        (["eval", "--scheme", "resample:step=0.5,step=0.05"], "step twice"),
        (["eval", "--scheme", "transform", "--lattice", "cube:step=0.5,step=1"],
         "step twice"),
    ], ids=["gaussian-variance", "uniform-mean", "laplace-scal", "hex-scal",
            "cube-dims", "cube-no-step", "unknown-lattice", "simple-step",
            "gaussian-nan", "cube-nan", "awgn-inf", "pmf-nan", "source-twice",
            "scheme-twice", "lattice-twice"])
    def test_bad_key_exit(self, tmp_path, capsys, argv, key):
        out = tmp_path / "x.out"
        n = ["-n", "10000"] * (argv[0] != "bounds")
        assert main(argv + n + ["--out", str(out)]) == EXIT_USAGE
        assert not out.exists()
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["bounds", "--dgrid", "nan,1"],
        ["bounds", "--dgrid", "0.1:inf:3"],
        ["sweep", "--family", "awgn", "--grid", "inf", "-n", "10000"],
    ], ids=["dgrid-nan", "dgrid-inf", "sweep-inf"])
    def test_non_finite_grid_exit(self, tmp_path, capsys, argv):
        out = tmp_path / "x.out"
        assert main(argv + ["--out", str(out)]) == EXIT_USAGE
        assert not out.exists()
        assert "not a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("dgrid", ["-0.5,1", "-1:1:3"])
    def test_negative_distortion_grid_exit(self, tmp_path, capsys, dgrid):
        # exited 4, "numerical failure: need finite var > 0 and d >= 0"
        out = tmp_path / "x.out"
        assert main(["bounds", f"--dgrid={dgrid}",
                     "--out", str(out)]) == EXIT_USAGE
        assert not out.exists()
        err = capsys.readouterr().err
        assert dgrid in err and "distortion must be >= 0" in err

    @pytest.mark.parametrize("argv", [
        # exited 0 with a header-only CSV
        ["bounds", "--dgrid", "0:1:0"],
        # exited 4, "numerical failure: empty parameter grid"
        ["sweep", "--family", "awgn", "--grid", "0:1:0", "-n", "10000"],
    ], ids=["dgrid-empty", "sweep-empty"])
    def test_empty_grid_exit(self, tmp_path, capsys, argv):
        out = tmp_path / "x.out"
        assert main(argv + ["--out", str(out)]) == EXIT_USAGE
        assert not out.exists()
        assert "empty grid" in capsys.readouterr().err

    @pytest.mark.parametrize("pmf", ["pmf:0.5,0.6", "pmf:1.2,-0.2", "pmf:"])
    @pytest.mark.parametrize("command", ["bounds", "eval"])
    def test_bad_pmf_exit_before_solver(self, tmp_path, capsys, monkeypatch,
                                        pmf, command):
        calls = []
        monkeypatch.setattr(dpquant.bounds, "sinkhorn_coupling",
                            lambda *args, **kwargs: calls.append(args))
        out = tmp_path / "x.out"
        argv = [command, "--source", pmf, "--out", str(out)]
        argv += ["--scheme", "simple", "-n", "10000"] * (command == "eval")
        assert main(argv) == EXIT_USAGE
        assert not out.exists() and calls == []
        err = capsys.readouterr().err
        assert pmf in err and "sum to 1" in err

    @pytest.mark.parametrize("argv", [
        ["eval", "--scheme", "simple", "-n", "10000"],
        ["sweep", "--family", "simple", "--grid", "1", "-n", "10000"],
    ], ids=["eval", "sweep"])
    def test_pmf_source_is_bounds_only(self, tmp_path, capsys, argv):
        out = tmp_path / "x.out"
        assert main(argv + ["--source", "pmf:0.5,0.5",
                            "--out", str(out)]) == EXIT_USAGE
        assert not out.exists() and "pmf" in capsys.readouterr().err

    def test_pmf_longer_than_solver_limit_exit(self, tmp_path, capsys,
                                               monkeypatch):
        # the solver's own refusal used to surface as a numerical failure
        calls = []
        monkeypatch.setattr(dpquant.bounds, "sinkhorn_coupling",
                            lambda *args, **kwargs: calls.append(args))
        out = tmp_path / "x.out"
        pmf = "pmf:" + ",".join([repr(1 / 65)] * 65)
        assert main(["bounds", "--source", pmf, "--out", str(out)]) == EXIT_USAGE
        assert not out.exists() and calls == []
        assert "at most 64 entries, not 65" in capsys.readouterr().err

    def test_pmf_at_solver_limit_accepted(self, tmp_path):
        out = tmp_path / "pmf64.csv"
        pmf = "pmf:" + ",".join(["0.015625"] * 64)
        assert main(["bounds", "--source", pmf, "--out", str(out)]) == EXIT_OK
        assert len(_rows(out)[1]) == 64

    @pytest.mark.parametrize("argv,config", [
        (["eval", "--scheme", "simple", "-n", "50"], None),
        (["eval", "--scheme", "simple", "-n", "100"], None),
        (["eval", "--scheme", "simple", "-n", "9999"], None),
        (["sweep", "--family", "simple", "--grid", "1", "-n", "100"], None),
        (["eval", "--scheme", "simple"], "n=100"),
        (["sweep", "--family", "simple", "--grid", "1"], "n=0"),
    ], ids=["eval-50", "eval-100", "eval-9999", "sweep-100", "config-eval",
            "config-sweep"])
    def test_n_below_floor_exit(self, tmp_path, capsys, argv, config):
        if config is not None:
            cfgf = tmp_path / "run.cfg"
            cfgf.write_text(config + "\n")
            argv = argv + ["--config", str(cfgf)]
        out = tmp_path / "x.out"
        assert main(argv + ["--out", str(out)]) == EXIT_USAGE
        assert not out.exists()
        assert "n must be >= 10000" in capsys.readouterr().err
