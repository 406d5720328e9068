import json
import math

import pytest

from dpquant.cli import (EXIT_BOUND, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE,
                         UsageError, _parse_grid, _parse_lattice,
                         _parse_source, main)
from dpquant.prob import Family


def _rows(path):
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    return header, [dict(zip(header, l.split(","))) for l in lines[1:]]


class TestParsing:
    def test_source_gaussian(self):
        m = _parse_source("gaussian:var=4,mean=1")
        assert m.family is Family.GAUSSIAN and m.params == (1.0, 4.0)

    def test_source_pmf(self):
        assert _parse_source("pmf:0.5,0.5") == [0.5, 0.5]

    def test_source_bad(self):
        with pytest.raises(UsageError):
            _parse_source("cauchy:scale=1")
        with pytest.raises(UsageError):
            _parse_source("gaussian:var")

    def test_lattice(self):
        lat = _parse_lattice("cube:step=0.1,dim=3")
        assert lat.dim == 3 and lat.step == pytest.approx(0.1)
        assert _parse_lattice("hex:scale=0.5").kind == "hexagonal"
        with pytest.raises(UsageError):
            _parse_lattice("cube:size=1")

    def test_grid(self):
        g = _parse_grid("0:1:5")
        assert len(g) == 5 and g[0] == 0 and g[-1] == 1
        assert list(_parse_grid("0.5,2")) == [0.5, 2.0]
        with pytest.raises(UsageError):
            _parse_grid("a:b:c")


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
                     "--cost", "hamming", "--out", str(out)]) == EXIT_OK
        _, rows = _rows(out)
        near = min(rows, key=lambda r: abs(float(r["D"]) - 0.11))
        # equiprobable binary with Hamming cost: rate = ln2 - Hb(D)
        hb = -(0.11 * math.log(0.11) + 0.89 * math.log(0.89))
        assert abs(float(near["D"]) - 0.11) < 0.02
        assert float(near["rate_nats"]) == pytest.approx(math.log(2) - hb,
                                                         abs=0.02)


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
        assert rep["mse_per_dim"] == pytest.approx(0.5858, abs=0.005)

    def test_check_bound_failure_exit(self, tmp_path, monkeypatch):
        import dpquant.cli as cli
        monkeypatch.setattr(cli, "compare_to_bound",
                            lambda rep: {"above_bound": False,
                                         "margin_nats": -1.0,
                                         "tolerance_nats": 0.0})
        out = tmp_path / "r.json"
        assert main(["eval", "--scheme", "simple", "-n", "10000",
                     "--check-bound", "--out", str(out)]) == EXIT_BOUND

    def test_numeric_failure_exit(self, tmp_path):
        out = tmp_path / "r.json"
        assert main(["eval", "--scheme", "simple", "-n", "50",
                     "--out", str(out)]) == EXIT_NUMERIC


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
        cfgf.write_text("family=simple\nn=20000\nseed=9\nout=ignored.csv\n")
        out = tmp_path / "s.csv"
        assert main(["sweep", "--config", str(cfgf), "--grid", "1",
                     "--out", str(out)]) == EXIT_OK
        text = out.read_text()
        assert "# seed=9" in text and "# family=simple" in text
        _, rows = _rows(out)
        assert rows[0]["scheme"] == "SimpleDpq"
        assert float(rows[0]["rate_nats"]) == 0.0

    def test_dpq_seed_env_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DPQ_SEED", "42")
        out = tmp_path / "s.csv"
        assert main(["sweep", "--family", "simple", "--grid", "1",
                     "-n", "20000", "--out", str(out)]) == EXIT_OK
        _, rows = _rows(out)
        assert rows[0]["seed"] == "42"


class TestUsageErrors:
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
        ["bounds", "--cost", "frobnicate"],
        ["bounds", "--cost", "hamming"],  # a Gaussian source has no cost table
        ["sweep", "--units", "bits", "--family", "simple", "--grid", "1",
         "-n", "10000"],
    ], ids=["bounds-units", "bounds-seed", "bounds-workers", "bounds-cost",
            "bounds-cost-gaussian", "sweep-units"])
    def test_unused_option_exit(self, tmp_path, argv):
        out = tmp_path / "x.out"
        assert main(argv + ["--out", str(out)]) == EXIT_USAGE
        assert not out.exists()

    @pytest.mark.parametrize("argv,config,env", [
        (["eval", "-n", "abc"], None, None),
        (["eval", "--workers", "x"], None, None),
        (["eval", "--seed", "x"], None, None),
        (["sweep", "-n", "1e4"], None, None),
        (["eval"], "n=abc", None),
        (["eval"], "workers=x", None),
        (["sweep"], "seed=x", None),
        (["eval"], None, "abc"),
        (["sweep"], None, "abc"),
    ], ids=["eval-n", "eval-workers", "eval-seed", "sweep-n", "config-n",
            "config-workers", "config-seed", "env-seed-eval", "env-seed-sweep"])
    def test_non_integer_option_exit(self, tmp_path, monkeypatch, argv, config,
                                     env):
        if config is not None:
            cfgf = tmp_path / "run.cfg"
            cfgf.write_text(config + "\n")
            argv = argv + ["--config", str(cfgf)]
        if env is not None:
            monkeypatch.setenv("DPQ_SEED", env)
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
    ], ids=["sweep-units", "sweep-lattice", "eval-family", "eval-dgrid",
            "bounds-seed", "bounds-workers", "bounds-units", "bounds-n"])
    def test_unread_config_key_exit(self, tmp_path, capsys, argv, key):
        cfgf = tmp_path / "run.cfg"
        value = {"units": "furlongs", "lattice": "hex:scale=1",
                 "family": "simple", "dgrid": "0.1"}.get(key, "2")
        cfgf.write_text(f"{key}={value}\n")
        out = tmp_path / "x.out"
        assert main(argv + ["--config", str(cfgf), "--out", str(out)]) == EXIT_USAGE
        assert not out.exists()
        assert key in capsys.readouterr().err

    def test_flag_seed_overrides_bad_env_seed(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DPQ_SEED", "abc")
        assert main(["eval", "--seed", "4", "-n", "10000",
                     "--out", str(tmp_path / "r.json")]) == EXIT_OK

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
        assert rep["param"] == 0.5 and len(rep["ks_per_axis"]) == 2

    def test_defaults_and_reported_param(self, tmp_path):
        out = tmp_path / "r.json"
        assert main(["eval", "--scheme", "resample", "-n", "10000",
                     "--out", str(out)]) == EXIT_OK
        rep = json.loads(out.read_text())
        assert rep["param"] == 0.05 and rep["scheme"]["step"] == 0.05
