"""Every `dpq` command in README's CLI code block runs and exits 0, and it and
a few further commands write the same files as they always have."""

import hashlib
import json
import re
import shlex
from pathlib import Path

import pytest

from dpquant.cli import EXIT_OK, main

README = Path(__file__).resolve().parents[1] / "README.md"


def _cli_commands():
    text = README.read_text()
    section = text[text.index("\n## CLI"):]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    joined = block.replace("\\\n", " ")
    return [" ".join(line.split()) for line in joined.splitlines()
            if line.strip().startswith("dpq ")]


COMMANDS = _cli_commands()

# command -> (config file text or None, {file it writes: sha256 prefix}).  A
# JSON report is hashed without its `wall_time`.  The README commands come
# first, in README order; the rest cover a ternary pmf curve, the hexagon and
# options read from a config file.
OUTPUTS = {
    "dpq bounds --source gaussian:var=1 --dgrid 0.01:2:200 --out bounds.csv":
        (None, {"bounds.csv": "3bab62bcc9a44b96"}),
    "dpq bounds --source pmf:0.5,0.5 --out binary.csv":
        (None, {"binary.csv": "d1e6174fec10836e"}),
    "dpq eval --scheme transform --lattice cube:step=0.1 --source gaussian:var=1"
    " -n 100000 --seed 7 --check-bound --out report.json":
        (None, {"report.json": "383d942bb390c99c"}),
    "dpq sweep --family transform --grid 0.05,0.1,0.2,0.5,1,2,4 -n 100000"
    " --seed 0 --workers 4 --out sweep.csv":
        (None, {"sweep.csv": "c42bb595f2d20691"}),
    "dpq bounds --source pmf:0.2,0.3,0.5 --out ternary.csv":
        (None, {"ternary.csv": "afe70fc4d1d763e5"}),
    "dpq eval --scheme transform --lattice hex:scale=0.5 -n 10000 --seed 3"
    " --out hex.json":
        (None, {"hex.json": "b6c0ecc462f125db"}),
    "dpq bounds --config run.cfg":
        ("source=gaussian:mean=1,var=2\ndgrid=0.1,0.5,1\n",
         {"bounds.csv": "46e7e6860ce53b30"}),
    "dpq eval --config run.cfg --seed 5":
        ("scheme=awgn:eta2=0.5\nn=10000\nseed=2\ncheck_bound=1\n"
         "workers=2\nout=awgn.json\n",
         {"awgn.json": "f93e041fa59c2d21"}),
    "dpq sweep --config run.cfg --grid 0.5,2":
        ("family=resample\nsource=laplace:scale=2\nn=10000\nseed=4\n",
         {"sweep.csv": "845d8c42f4c1e9b3"}),
}


def _digest(path: Path) -> str:
    data = path.read_bytes()
    if path.suffix == ".json":
        report = json.loads(data)
        del report["wall_time"]
        data = json.dumps(report, sort_keys=True, indent=2).encode()
    return hashlib.sha256(data).hexdigest()[:16]


def _run(tmp_path, monkeypatch, command):
    """Run one command in an empty directory; the digests of what it wrote."""
    config, _ = OUTPUTS[command]
    monkeypatch.chdir(tmp_path)
    if config is not None:
        (tmp_path / "run.cfg").write_text(config)
    assert main(shlex.split(command)[1:]) == EXIT_OK
    return {p.name: _digest(p) for p in tmp_path.iterdir() if p.name != "run.cfg"}


def test_readme_has_cli_commands():
    assert len(COMMANDS) >= 4
    assert COMMANDS == list(OUTPUTS)[:len(COMMANDS)]


@pytest.mark.parametrize("command", COMMANDS, ids=range(len(COMMANDS)))
def test_readme_command_exits_ok(tmp_path, monkeypatch, command):
    assert _run(tmp_path, monkeypatch, command) == OUTPUTS[command][1]


FURTHER = list(OUTPUTS)[len(COMMANDS):]


@pytest.mark.parametrize("command", FURTHER, ids=range(len(FURTHER)))
def test_further_command_writes_pinned_files(tmp_path, monkeypatch, command):
    assert _run(tmp_path, monkeypatch, command) == OUTPUTS[command][1]
