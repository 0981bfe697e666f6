"""One traced unit of two benchmark workloads, run as a tier-1 test.

The benchmark (``perfbench/``) reaches into the package by name: its
tracer patches public functions and methods, and its checks read result
fields.  A change that drops such a name fails here, in the test suite,
and not first when the benchmark runs.  Nothing under ``perfbench/`` is
edited or configured by this test.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import workloads  # noqa: E402
from perfbench.instrument import Instrument  # noqa: E402


# paper-512 is the one workload whose unit runs the svd and random_sketch
# compressions, so their pre-code paths run here too.
@pytest.mark.parametrize("name", ["paper-512", "paper-64", "deep-feedback-tcp"])
def test_one_traced_unit_passes_every_check(name, tmp_path):
    spec = workloads.WORKLOADS[name]
    with Instrument(spans=True) as ins:
        with ins.unit(0):
            rows = workloads.run_unit(spec, 300, str(tmp_path))
    assert workloads.check_unit(spec, rows, ins.ddpp_runs) == []
