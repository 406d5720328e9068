"""End-to-end behaviour of run.py and the BENCHMARK.json it is described by."""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

from perfbench import spec

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=170)


def test_benchmark_json_matches_spec():
    assert (ROOT / "BENCHMARK.json").read_text() == spec.render()


def test_spec_is_within_limits():
    b = spec.benchmark_json()
    names = [w["name"] for w in b["workloads"]] + \
        [m["name"] for m in b["end_to_end"] + b["per_layer"]]
    assert all(NAME.match(n) for n in names) and len(set(names)) == len(names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in b["workloads"])
    assert all(UNIT.match(m["unit"]) for m in b["end_to_end"] + b["per_layer"])
    assert all(0 < m["bound"] <= 0.25 for m in b["end_to_end"])
    setup = next(m for m in b["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in b["end_to_end"])
    assert 2 <= len(b["workloads"]) <= 8 and 1 <= b["run_seconds"] <= 60


def test_same_seed_gives_same_non_timing_fields():
    outs = [_run("--workload", "light-schemes", "--seed", "5",
                 "--seconds", "0", "--trace", "0") for _ in range(2)]
    for out in outs:
        assert out.returncode == 0, out.stderr
    results = [json.loads(o.stdout.strip().splitlines()[-1]) for o in outs]
    digests = [re.search(r"digest (\w+)", o.stdout).group(1) for o in outs]
    assert digests[0] == digests[1]
    for r in results:
        assert r["correct"] and r["failed"] == 0
        assert set(r["metrics"]) == {m["name"] for m in spec.END_TO_END}
    assert results[0]["attempted"] == results[1]["attempted"] == 3


def test_refuses_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = _run("--workload", "light-schemes", "--seed", "1",
               "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert "correct" not in out.stdout
