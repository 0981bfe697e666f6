"""Tests of the benchmark itself: smoke runs, tracer arithmetic, checks.

    python3 -m pytest -q perfbench/tests
"""

import argparse
import concurrent.futures
import importlib
import json
import sys
import threading
from dataclasses import replace

import pytest

from perfbench import instrument, run, workloads
from perfbench.instrument import Instrument, attribute
from perfbench.reference import Reference

ROOT = run.ROOT


def tiny(name):
    """A seconds-scale variant of a workload, same code paths."""
    spec = workloads.WORKLOADS[name]
    return replace(spec, dims=64, n_sources=2, total_select=8,
                   intervals=min(spec.intervals, 4), per_source_size=40,
                   quality_units=1)


def snapshot():
    """Every attribute the tracer may replace, by identity."""
    owners = [m for n, m in sys.modules.items() if n == "ddpp" or n.startswith("ddpp.")]
    owners += [getattr(importlib.import_module(f"ddpp.{layer}"), cls)
               for layer, cls in instrument.METHODS]
    owners.append(concurrent.futures.Future)
    return {(id(o), attr): id(value) for o in owners for attr, value in vars(o).items()}


# -- smoke runs -------------------------------------------------------------

@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("spans", [False, True])
def test_tiny_unit_passes_every_check(name, spans, tmp_path):
    spec = tiny(name)
    log = run.UnitLog()
    with Instrument(spans=spans) as ins:
        wall = run.run_one(spec, 3, ins, tmp_path, log, uid=0)
    assert wall is not None, log.errors
    assert (log.attempted, log.failed) == (1, 0)
    rows = log.quality[0][1]
    assert [workloads.label_of(r) for r in rows] == spec.labels()
    assert log.quality[0][2] > 0  # wire bytes of the ddpp run
    if spans:
        summary = instrument.unit_summary(ins)
        assert abs(summary["identity_error_s"]) < 1e-9
        assert summary["calls"]["linalg.gram"] > 0


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_measured_loop_reports_every_end_to_end_metric(name, tmp_path):
    spec = tiny(name)
    args = argparse.Namespace(seed=5, seconds=0.0)
    log, elapsed = run.measure(spec, args, tmp_path, Reference(spec.dims, spec.per_source_size))
    assert len(log.scales) == len(log.walls) == 1
    metrics = run.end_to_end(log, setup_s=1.0)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert list(metrics) == [m["name"] for m in bench["end_to_end"]]
    assert all(v >= 0 for v, _ in metrics.values())
    assert all(metrics[k][0] > 0 for k in ("units_per_s", "unit_s.p50", "ddpp_run_s.p50",
                                           "wire_bytes.per_unit"))


def test_tiny_traced_loop_reports_every_per_layer_metric(tmp_path):
    spec = tiny("paper-64")
    args = argparse.Namespace(seed=5, seconds=0.0)
    plain, traced, records, summaries = run.measure_traced(spec, args, tmp_path)
    assert plain.walls and traced.walls and summaries
    metrics = instrument.layer_metrics(summaries, plain.walls, traced.walls)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert list(metrics) == [m["name"] for m in bench["per_layer"]]
    assert metrics["dpp.subset_logdet.unique_ratio"][0] < 1.0  # rde recomputes gt
    assert 0 < metrics["csi.packet.budget_use"][0] <= 1.0


def test_transports_agree_on_the_first_seed(tmp_path):
    assert run.transport_agreement(tiny("deep-feedback-tcp"), 2, tmp_path)


def test_benchmark_file_lists_the_workloads():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in bench["workloads"]] == \
        [w.why for w in workloads.WORKLOADS.values()]


# -- tracer -------------------------------------------------------------------

def span(sid, name, start, end, thread=1, wait=False, parent=0):
    return (sid, name, start, end, parent, 0, thread, wait)


def test_self_time_of_nested_spans():
    root = span(0, "unit", 0.0, 10.0, parent=None)
    spans = [span(1, "a", 1.0, 9.0), span(2, "b", 2.0, 5.0, parent=1),
             span(3, "c", 3.0, 4.0, parent=2), span(4, "b", 6.0, 7.0, parent=1)]
    self_by_name, unattributed = attribute(spans, root)
    assert self_by_name == pytest.approx({"a": 4.0, "b": 3.0, "c": 1.0})
    assert unattributed == pytest.approx(2.0)


def test_self_time_across_threads_keeps_the_wall_identity():
    # Center thread 1 waits in recv while source threads 2 and 3 work.
    root = span(0, "unit", 0.0, 12.0, parent=None)
    spans = [span(1, "run", 0.0, 11.0), span(2, "recv", 1.0, 10.0, wait=True, parent=1),
             span(3, "precode", 2.0, 6.0, thread=2), span(4, "precode", 4.0, 8.0, thread=3),
             span(5, "recv_src", 8.5, 9.5, thread=3, wait=True)]
    self_by_name, unattributed = attribute(spans, root)
    # [0,1) run; [1,2) recv; [2,4) t2; [4,6) t2+t3 split; [6,8) t3;
    # [8,10) recv (recv_src also waits in [8.5,9.5)); [10,11) run; [11,12) none.
    assert self_by_name == pytest.approx({"run": 2.0, "recv": 2.5, "precode": 6.0,
                                          "recv_src": 0.5})
    assert unattributed == pytest.approx(1.0)
    assert sum(self_by_name.values()) + unattributed == pytest.approx(12.0)


def test_every_patched_attribute_is_restored(tmp_path):
    import ddpp.engine
    import ddpp.linalg
    before = snapshot()
    original_gram = ddpp.linalg.gram
    with Instrument(spans=True) as ins:
        # Bindings imported by name are replaced too, not only the home one.
        assert ddpp.engine.gram is not original_gram
        assert ddpp.linalg.gram is ddpp.engine.gram
        patched = ins.patched
        with ins.unit(0):
            workloads.run_unit(tiny("paper-64"), 1, str(tmp_path))
    assert patched
    assert all(getattr(owner, attr) is original for owner, attr, original in patched)
    assert snapshot() == before


def test_restored_after_a_unit_raises(tmp_path):
    before = snapshot()
    with pytest.raises(ZeroDivisionError):
        with Instrument(spans=True) as ins, ins.unit(0):
            1 / 0
    assert snapshot() == before


def test_source_thread_spans_have_the_unit_as_parent(tmp_path):
    with Instrument(spans=True) as ins, ins.unit(7):
        workloads.run_unit(tiny("deep-feedback-tcp"), 1, str(tmp_path))
    root = next(r for r in ins.records if r[1] == instrument.SPAN_UNIT)
    by_id = {r[0]: r for r in ins.records}
    main = threading.get_ident()
    outer = [r for r in ins.records if r[6] != main and
             (r[4] not in by_id or by_id[r[4]][6] != r[6])]
    assert outer and all(r[4] == root[0] for r in outer)
    assert any(r[1] == instrument.SPAN_RECV_CENTER for r in ins.records)
    summary = instrument.unit_summary(ins)
    assert abs(summary["identity_error_s"]) < 1e-9
    assert summary["recv_wait_s"] > 0


# -- checks and failure accounting -------------------------------------------

def test_check_unit_flags_bad_rows(tmp_path):
    spec = tiny("paper-64")
    with Instrument() as ins, ins.unit(0):
        rows = workloads.run_unit(spec, 1, str(tmp_path))
    assert workloads.check_unit(spec, rows, ins.ddpp_runs) == []
    bad = [dict(r) for r in rows]
    bad[1]["rde"] = 1.5
    bad[2]["selected_indices"] = bad[2]["selected_indices"][:-1]
    bad[0]["downlink_elements"] = 10**9
    failures = workloads.check_unit(spec, bad, ins.ddpp_runs)
    assert "greedi:rde_range" in failures
    assert "greedymax:selection_size" in failures
    assert "greedymax:uplink_elements" in failures
    assert "ddpp:downlink_budget" in failures
    assert "ddpp_probe" in workloads.check_unit(spec, rows, [])


def test_failed_check_and_raised_error_raise_failed_ratio(tmp_path, monkeypatch):
    spec = tiny("paper-64")
    log = run.UnitLog()
    with Instrument() as ins:
        assert run.run_one(spec, 1, ins, tmp_path, log, uid=0) is not None
        real = workloads.run_unit

        def corrupted(*args):
            rows = real(*args)
            rows[0]["rde"] = -0.5
            return rows
        monkeypatch.setattr(workloads, "run_unit", corrupted)
        assert run.run_one(spec, 2, ins, tmp_path, log, uid=1) is None

        def broken(*args):
            raise FloatingPointError("boom")
        monkeypatch.setattr(workloads, "run_unit", broken)
        assert run.run_one(spec, 3, ins, tmp_path, log, uid=2) is None
    attempted, failed, ratio, errors = run.failure_summary([log])
    assert (attempted, failed) == (3, 2)
    assert ratio == pytest.approx(2 / 3)
    assert errors == {"CheckFailed": 1, "FloatingPointError": 1}
    assert len(log.walls) == 1


def test_timings_are_scaled_unit_by_unit():
    log = run.UnitLog()
    log.walls, log.ddpp_s, log.scales = [1.0, 2.0, 4.0], [0.5, 1.0, 1.0], [2.0, 1.0, 0.5]
    assert run.timings(log) == (0.5, 2.0, 1.0)
    assert run.timings(log, scaled=False) == (3 / 7, 2.0, 1.0)
    ref = Reference(64, 40)
    assert ref.scale(0.5 * ref.nominal, 1.5 * ref.nominal) == 1.0


def test_tail_needs_ten_samples_beyond_the_percentile():
    assert run.tail([1.0] * 10) is None
    t = run.tail([float(i) for i in range(1, 21)])
    assert (t["percentile"], t["n"], t["value"]) == (50, 20, 10.0)
    t = run.tail([float(i) for i in range(1, 201)])
    assert (t["percentile"], t["value"]) == (95, 190.0)
