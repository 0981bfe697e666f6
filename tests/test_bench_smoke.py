"""One traced unit of two benchmark workloads, run as a tier-1 test.

The benchmark (``perfbench/``) reaches into the package by name: its
tracer patches public functions and methods, and its checks read result
fields.  A change that drops such a name fails here, in the test suite,
and not first when the benchmark runs.  Nothing under ``perfbench/`` is
edited or configured by this test.
"""

import collections
import sys
from pathlib import Path

import pytest

from ddpp import csi, dpp, engine

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import workloads  # noqa: E402
from perfbench.instrument import Instrument  # noqa: E402

# The side of each kept shape rule a workload's unit takes: a change that
# moves a workload off one leaves that side of the rule untimed.
TAKES = {
    "paper-512": {"lazy greedy", "complement root", "shared Gram"},
    "paper-64": {"streaming greedy", "block eigh", "no shared Gram"},
    "deep-feedback-tcp": {"lazy greedy", "block eigh"},
}


def count_sides(monkeypatch):
    """Count the calls on each side of LAZY_MIN_ENTRIES, COMPLEMENT_MIN_DIMS
    and ``engine._share_gram``'s n_i < m, by the shape each rule reads."""
    sides = collections.Counter()

    def tally(module, name, side):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            sides[side(*args)] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    tally(dpp, "greedy_map_rows", lambda Z, *_: (
        "lazy greedy" if Z.size >= dpp.LAZY_MIN_ENTRIES else "streaming greedy"))
    tally(csi, "_block_root", lambda B, *_: (
        "complement root" if len(B) >= csi.COMPLEMENT_MIN_DIMS
        else "block eigh" if len(B) else "no block"))
    tally(engine, "_share_gram", lambda ds, i, rows, *_: (
        "shared Gram" if rows.shape[0] < rows.shape[1] else "no shared Gram"))
    return sides


# paper-512 is the one workload whose unit runs the svd and random_sketch
# compressions, so their pre-code paths run here too.
@pytest.mark.parametrize("name", ["paper-512", "paper-64", "deep-feedback-tcp"])
def test_one_traced_unit_passes_every_check(name, tmp_path, monkeypatch):
    spec = workloads.WORKLOADS[name]
    sides = count_sides(monkeypatch)
    with Instrument(spans=True) as ins:
        with ins.unit(0):
            rows = workloads.run_unit(spec, 300, str(tmp_path))
    assert workloads.check_unit(spec, rows, ins.ddpp_runs) == []
    assert {side for side in TAKES[name] if not sides[side]} == set(), sides
