"""Tests of the benchmark's own arithmetic and of its definition files.

Run with: python3 -m pytest perfbench -q
"""

import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import sloccinv as S  # noqa: E402
import workloads  # noqa: E402
from sloccinv import statevec  # noqa: E402
from spans import Tracer, outermost, self_times  # noqa: E402
from summary import failed_ratio, tail_percentile  # noqa: E402


@pytest.mark.parametrize("count, rank", [(22, 12), (30, 20), (100, 90)])
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(count, rank):
    samples = [float(x) for x in range(count, 0, -1)]  # unsorted on purpose
    value, pct, n, beyond = tail_percentile(samples)
    assert value == rank
    assert sum(x > value for x in samples) == beyond == 10
    assert pct == pytest.approx(100 * rank / count)
    assert n == count


@pytest.mark.parametrize("count", [1, 10, 20, 21])
def test_tail_falls_back_to_the_maximum_when_no_percentile_above_the_median_has_ten_beyond(count):
    samples = [float(x) for x in range(count)]
    assert tail_percentile(samples) == (count - 1, 100.0, count, 0)


def test_tail_needs_samples():
    with pytest.raises(ValueError):
        tail_percentile([])


def test_failed_ratio_counts_against_attempts():
    assert failed_ratio(0, 25) == 0.0
    assert failed_ratio(3, 12) == 0.25
    assert failed_ratio(7, 7) == 1.0
    with pytest.raises(ValueError):
        failed_ratio(0, 0)
    with pytest.raises(ValueError):
        failed_ratio(3, 2)


def _fake_layer():
    """A module whose outer() calls inner() twice; inner() calls leaf() three times."""
    mod = types.ModuleType("fake.layer")
    src = (
        "def leaf(x):\n    return x + 1\n"
        "def inner(x):\n    return leaf(leaf(leaf(x)))\n"
        "def outer(x):\n    return inner(x) + inner(x)\n"
        "def countdown(k):\n    return 0 if k == 0 else countdown(k - 1)\n"
        "def _private():\n    return 1\n"
    )
    exec(compile(src, "fake_layer", "exec"), mod.__dict__)
    for value in vars(mod).values():
        if callable(value):
            value.__module__ = "fake.layer"
    return mod


def _traced(hot=("layer.leaf",)):
    mod = _fake_layer()
    tracer = Tracer({"fake.layer": "layer"}, proc="p", hot=hot)
    tracer.install([mod])
    return mod, tracer


def test_self_time_subtracts_child_spans_and_hot_callees():
    mod, tracer = _traced()
    tracer.job = 0
    assert mod.outer(1) == 8
    tracer.job = None
    names = [s.name for s in tracer.spans]
    assert names == ["layer.outer", "layer.inner", "layer.inner"]
    outer, first, second = tracer.spans
    assert first.parent == second.parent == 0 and outer.parent == -1
    selfs = self_times(tracer.spans)
    assert selfs[0] == pytest.approx(outer.duration - first.duration - second.duration)
    assert selfs[1] == pytest.approx(first.duration - first.hot_s)
    hot_s = tracer.hot[(0, "layer.leaf")][1]
    assert sum(selfs) + hot_s == pytest.approx(outer.duration)


def test_recursive_spans_count_busy_time_once():
    mod, tracer = _traced()
    tracer.job = 0
    mod.countdown(3)
    spans = tracer.spans
    assert [s.name for s in spans] == ["layer.countdown"] * 4
    assert [outermost(spans, i) for i in range(4)] == [True, False, False, False]


def test_hot_functions_are_aggregated_per_job_without_spans():
    mod, tracer = _traced()
    mod.outer(1)                       # outside a job: not recorded
    assert tracer.spans == [] and not tracer.hot
    for job in (0, 1):
        tracer.job = job
        mod.outer(1)
        mod.leaf(1)                    # a hot call with no enclosing span
    tracer.job = None
    assert tracer.hot[(0, "layer.leaf")][0] == tracer.hot[(1, "layer.leaf")][0] == 7
    assert all(s.name != "layer.leaf" for s in tracer.spans)
    assert len(tracer.spans) == 6


def test_install_wraps_each_function_once_and_uninstall_restores_it():
    mod = _fake_layer()
    original = mod.outer
    other = types.ModuleType("fake.other")
    other.outer = original             # the same function imported elsewhere
    tracer = Tracer({"fake.layer": "layer"})
    tracer.install([mod, other])
    tracer.install([mod, other])       # installing twice does not wrap twice
    assert mod.outer is other.outer is not original
    assert mod.outer.__wrapped__ is original
    assert mod._private.__name__ == "_private" and not hasattr(mod._private, "__wrapped__")
    tracer.uninstall()
    assert mod.outer is original and other.outer is original


def test_merged_child_spans_hang_under_the_parent_span():
    mod, child = _traced()
    child.job = 4
    mod.outer(1)
    parent = Tracer({}, proc="worker")
    parent.job = 4
    root = parent.add_span("cli.run", 0.0, 1.0)
    parent.merge(json.loads(json.dumps(child.dump())), parent=root)
    assert [s.parent for s in parent.spans] == [-1, 0, 1, 1]
    assert parent.spans[1].proc == "p"
    assert parent.hot[(4, "layer.leaf")][0] == 6


def test_cold_time_is_a_mean_over_the_processes_that_filled_the_cache():
    tracer = Tracer({})
    rows = [  # name, start, end, parent, job, proc, hot_s, cold, value
        ["criteria.f_enumerate", 0.0, 2.0, -1, "setup", "a", 0.0, True, 10],
        ["criteria.f_enumerate", 2.0, 2.5, -1, 0, "a", 0.0, False, 0],
        ["criteria.f_enumerate", 0.0, 4.0, -1, 0, "b", 0.0, True, 30],
    ]
    tracer.merge({"spans": rows, "hot": [], "counters": []})
    m = layers.layer_metrics(tracer, [0])
    assert m["criteria.f_enumerate.cold_s"] == pytest.approx(3.0)
    assert m["criteria.f_tuples"] == pytest.approx(20.0)


def test_flag_yield_counts_compares_that_evaluated_criteria():
    tracer = Tracer({})
    rows = [
        ["classify.compare", 0.0, 1.0, -1, 0, "a", 0.0, False, 3],
        ["criteria.criteria_signature", 0.1, 0.2, 0, 0, "a", 0.0, False, 0],
        ["classify.compare", 1.0, 2.0, -1, 0, "a", 0.0, False, 0],
        ["criteria.criteria_signature", 1.1, 1.2, 2, 0, "a", 0.0, False, 0],
        ["classify.compare", 2.0, 3.0, -1, 0, "a", 0.0, False, 0],  # decided on tau alone
    ]
    tracer.merge({"spans": rows, "hot": [], "counters": []})
    m = layers.layer_metrics(tracer, [0])
    assert m["classify.flag_yield"] == 0.5
    assert m["classify.compare.calls"] == 3


def test_apply_chain_work_model():
    assert layers.apply_chain_work(4) == (2 * 2 * 16 * 16, 2 * 30 * 16)
    assert layers.apply_chain_work(3) == (2 * 2 * 16 * 8, (30 + 14) * 8)


def test_pair_magnitude_sums_antipodal_products_in_absolute_value():
    assert workloads.pair_magnitude(np.array([1, -2, 3j, 4])) == 1 * 4 + 2 * 3


@pytest.mark.parametrize("theorem, n, verify", [(1, 8, S.verify_theorem1),
                                                 (2, 7, S.verify_theorem2)])
def test_rounding_check_redoes_the_harness_trials(theorem, n, verify):
    assert workloads.rounding_check(theorem, n, 5, 20) == (verify(n, 20, 5), [])


def test_rounding_check_flags_an_error_beyond_rounding(monkeypatch):
    exact = S.apply_chain
    monkeypatch.setattr(S, "apply_chain", lambda chain, s: statevec._wrap(
        s.n, exact(chain, s).amplitudes * (1 + 1e-6)))
    worst, problems = workloads.rounding_check(1, 8, 5, 20)
    assert worst > workloads.VERIFY_GATE
    assert len(problems) == 20


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == layers.PER_LAYER


def test_every_per_layer_metric_has_one_prediction():
    rows = json.loads((HERE / "predictions.json").read_text())["rows"]
    named = [m for row in rows for m in row["metrics"]]
    assert sorted(named) == sorted(layers.PER_LAYER)
    for row in rows:
        for workload, metrics in row["moves"].items():
            assert workload in run.WORKLOADS
            assert set(metrics) <= set(run.END_TO_END)
