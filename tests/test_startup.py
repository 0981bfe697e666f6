"""The run path needs numpy alone: SciPy loads only for the t-test."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.stats

import ddpp
from ddpp import cli, engine

RUN_ARGS = ["--strategies", ",".join(engine.STRATEGIES), "--seeds", "3",
            "--N", "2", "--kT", "4", "--tT", "2", "--m", "8", "--ni", "12",
            "--clusters", "4", "--R", "4"]

# Runs in a fresh interpreter: counts maxdiv's log-det probes, then reports
# which scipy modules the import and the run loaded.
SCRIPT = """
import json, sys
import ddpp, ddpp.cli
from ddpp import engine
probes = []
real = engine.logdet_psd
engine.logdet_psd = lambda M: probes.append(M.shape) or real(M)
code = ddpp.cli.main(sys.argv[1:])
print(json.dumps({"code": code, "probes": len(probes),
                  "scipy": sorted(m for m in sys.modules
                                  if m.split(".")[0] == "scipy")}))
"""


@pytest.fixture(scope="module")
def fresh_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("startup") / "run"
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(ddpp.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", SCRIPT, "run", "--out",
                           str(out), *RUN_ARGS],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return out, json.loads(proc.stdout.strip().splitlines()[-1])


def test_a_run_of_every_strategy_loads_no_scipy(fresh_run):
    _, report = fresh_run
    assert report["code"] == 0
    assert report["probes"] == 2 * 3  # maxdiv probes each source, each seed
    assert report["scipy"] == []


def test_ttest_matches_scipy_welch(fresh_run, capsys):
    out, _ = fresh_run
    assert cli.main(["ttest", "--results", str(out / "results.jsonl"),
                     "--a", "ddpp", "--b", "random"]) == 0
    payload = json.loads(capsys.readouterr().out.splitlines()[-1])
    with open(out / "results.jsonl") as fh:
        lines = [json.loads(ln) for ln in fh if ln.strip()]
    a, b = ([ln["rde"] for ln in lines if ln["strategy"] == s]
            for s in ("ddpp", "random"))
    ref = scipy.stats.ttest_ind(np.array(a), np.array(b), equal_var=False)
    assert payload["t"] == pytest.approx(ref.statistic, rel=1e-12)
    assert payload["p"] == pytest.approx(ref.pvalue, rel=1e-9)
