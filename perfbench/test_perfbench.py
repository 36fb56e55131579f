"""Tests of the benchmark itself: cache discipline, span accounting, correctness gate.

    PYTHONPATH=src python3 -m pytest -q -s perfbench/test_perfbench.py

Not part of the library's suite (``tests/``); about half a minute, most of
it two traced battery-n7 operations.
"""

from __future__ import annotations

import signal
import statistics
import time

import pytest

import reference
import run
import workloads
from tracer import COUNT_SUFFIXES, Tracer

run.use_source_tree()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_consecutive_traced_operations_repeat_their_counts(name):
    workload = workloads.WORKLOADS[name](seed=7)
    tracer = Tracer()
    layers = []
    for op_id in (1, 2):
        _, failures = run.one_op(workload, tracer, op_id)
        assert failures == []
        layers.append(tracer.metrics())
    first, second = layers
    counts = {k: v for k, v in first.items() if k.endswith(COUNT_SUFFIXES)}
    assert counts == {k: second[k] for k in counts}
    assert tracer.missing == []
    for layer in layers:
        assert layer["trace.self_sum_error_s"] < 1e-6
        assert layer["trace.attributed_s"] + layer["trace.residual_s"] == pytest.approx(layer["trace.op_s"])
    print(f"\n{name}: hochschild.build_hoch.hit_ratio = {first['hochschild.build_hoch.hit_ratio']}, "
          f"calls = {first['hochschild.build_hoch.calls']}")


def test_tracer_restores_every_function():
    import hochlat
    from hochlat import checks, hochschild, poset

    before = (checks.build_hoch, hochschild.as_lattice, hochlat.build_hoch,
              poset.FinitePoset.__dict__["closure"], hochlat.BiPoly.__add__)
    tracer = Tracer()
    with tracer.operation(1):
        assert checks.build_hoch is not before[0]
        assert hochschild.as_lattice is not before[1]
    after = (checks.build_hoch, hochschild.as_lattice, hochlat.build_hoch,
             poset.FinitePoset.__dict__["closure"], hochlat.BiPoly.__add__)
    assert all(a is b for a, b in zip(before, after))


def _all_bundles_pass(monkeypatch, checks):
    for b in workloads.BUNDLES:
        monkeypatch.setattr(checks, "check_" + b, lambda n: True)


def test_wrong_verdict_and_exception_count_as_failed(monkeypatch):
    workload = workloads.Battery(seed=1)
    _all_bundles_pass(monkeypatch, workload.checks)
    assert run.one_op(workload)[1] == []
    monkeypatch.setattr(workload.checks, "check_sigma", lambda n: False)
    assert run.one_op(workload)[1] == ["sigma"]

    def boom(n):
        raise RuntimeError("boom")

    monkeypatch.setattr(workload.checks, "check_faces", boom)
    assert run.one_op(workload)[1] == ["RuntimeError: boom"]


def test_build_gate_catches_wrong_size_and_wrong_join(monkeypatch):
    workload = workloads.Build(seed=1)
    real = workload.hochschild.build_hoch
    monkeypatch.setattr(workload.hochschild, "build_hoch", lambda n: real(6))
    assert run.one_op(workload)[1] == [
        f"element count {workloads.triword_total(6)}",
        f"cover count {workloads.cover_total(6)}",
    ]
    monkeypatch.setattr(workload.hochschild, "build_hoch", real)
    workload.n = 6
    workload.sample = [(1, 2)]
    assert run.one_op(workload)[1] == []
    workload.join_ref = lambda u, v: u
    assert run.one_op(workload)[1] == ["join of elements 1 and 2"]


def test_words_gate_names_the_disagreeing_route(monkeypatch):
    workload = workloads.Words(seed=1)
    workload.n = 5
    t = workload.triangles
    assert run.one_op(workload)[1] == []
    monkeypatch.setattr(t, "f_tilde", lambda n: t.f_closed(n) + 1)
    assert run.one_op(workload)[1] == ["f_tilde"]


def test_tail_needs_ten_samples_beyond():
    assert run.tail([1.0] * 10) == (None, None)
    assert run.tail([float(i) for i in range(1, 12)]) == (1.0, 100.0 / 11)
    value, pct = run.tail([float(i) for i in range(100)])
    assert (value, pct) == (89.0, 90.0)


def test_gauge_counts_kernel_units_while_the_operation_runs():
    gauge = reference.Gauge(interval=0.05)
    result, seconds, units = gauge.measure(time.sleep, 0.3)
    assert result is None
    assert 0.25 <= seconds < 0.5  # the samples taken during the sleep are left out
    assert len(gauge.kernel_s) >= 5  # one sample before, one after, several during
    assert units == pytest.approx(seconds / statistics.median(gauge.kernel_s), rel=0.5)
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL


def test_untraced_run_reports_time_in_reference_units():
    workload = workloads.Words(seed=1)
    workload.n = 5
    ops, metrics, record, problems = run.untraced_run(workload, 0.5, 0.1)
    assert problems == [] and all(not failures for _, failures in ops)
    assert len(record["op_ref"]) == len(ops)
    assert metrics["op_p50_ref"] > 0 and metrics["ref_p50_s"] > 0
