"""Self-tests of the benchmark: ``python3 -m pytest perfbench`` from the
root of a checkout. The hit tests run one real trial per workload (about
half a minute in all)."""

import json
import os
import re
import warnings

import numpy as np
import pytest

import layers
import run
from tracer import Tracer, bound_everywhere, inside, self_times
from workloads import WORKLOADS, import_trajloc, setup

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
trajloc = import_trajloc(ROOT)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCHMARK = json.load(fh)
with open(os.path.join(ROOT, "perfbench", "predictions.json"), encoding="utf-8") as fh:
    PREDICTIONS = json.load(fh)

# Spans each workload must reach; the rest of layers.SPAN_NAMES must stay
# at zero calls there.
NOT_ON_SBL = {
    "gridalgos.grid_beam_power",
    "gridalgos.tl_cbf_spectrum",
    "gridalgos.tl_omp",
    "gridless.tl_sfw",
    "gridless.tl_nomp",
} | {s for s in layers.SPAN_NAMES if s.startswith("optim.")}
EXPECTED_HITS = {
    "narrowband-linear": set(layers.SPAN_NAMES) - {"gridalgos.tl_sbl"},
    "wideband-quadratic": set(layers.SPAN_NAMES) - {"gridalgos.tl_sbl"},
    "sbl-linear": set(layers.SPAN_NAMES) - NOT_ON_SBL,
}
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_self_times_on_synthetic_spans():
    # root [0, 100] holds a [10, 40] (which holds c [15, 25]) and b [50, 60]
    start = [0, 10, 15, 50, 200]
    end = [100, 40, 25, 60, 230]
    parent = [-1, 0, 1, 0, -1]
    assert self_times(start, end, parent).tolist() == [60, 20, 10, 10, 30]
    assert inside(np.array(parent), np.array([0, 1, 2, 1, 0]), 1).tolist() == [False, False, True, False, False]


def test_tracer_records_nesting_and_exceptions():
    tr = Tracer()
    inner = tr.wrap("inner", lambda x: x + 1)

    def boom():
        raise ValueError("x")

    outer = tr.wrap("outer", lambda: inner(inner(1)))
    failing = tr.wrap("failing", boom)
    assert outer() == 3
    with pytest.raises(ValueError):
        failing()
    start, end, parent, name = tr.arrays()
    assert parent.tolist() == [-1, 0, 0, -1]
    assert [tr.names[i] for i in name] == ["outer", "inner", "inner", "failing"]
    assert np.all(end >= start)
    assert self_times(start, end, parent)[0] == (end[0] - start[0]) - (end[1] - start[1]) - (end[2] - start[2])


def test_install_replaces_every_binding_and_restores():
    orig = trajloc.model.trajectory_steering_matrix
    tr = Tracer()
    with layers.install(trajloc, tr):
        for mod in (trajloc.model, trajloc.optim, trajloc.gridalgos, trajloc.gridless, trajloc):
            assert mod.trajectory_steering_matrix is not orig
            assert mod.trajectory_steering_matrix.__wrapped__ is orig
    for mod in (trajloc.model, trajloc.optim, trajloc.gridalgos, trajloc.gridless, trajloc):
        assert mod.trajectory_steering_matrix is orig


def test_unbound_target_fails_loudly():
    def stray():
        pass

    with pytest.raises(LookupError):
        with bound_everywhere("trajloc", {stray: stray}):
            pass


def test_nonconvergence_warning_counted_and_raised_again():
    tr = Tracer()
    category = trajloc.optim.NumericsWarning

    def fn():
        warnings.warn("TL-SBL did not converge within 1 iterations", category)
        return 7

    counted = layers._counting_nonconvergence(fn, tr, category)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", category)
        assert counted() == 7
    assert tr.counters["sbl.nonconverged"] == 1
    assert [w.category for w in caught] == [category]


def test_invalid_estimates_are_failures():
    config, cell = setup(WORKLOADS["narrowband-linear"], ROOT)
    trial = run.run_trials(trajloc, config, [3])[0]
    assert run.failures(trajloc, [trial], config, cell) == []
    m = cell.sources[0].model
    bad = trajloc.TrajectoryParams(m, 88.0, (4.0,))  # reaches 92 degrees
    nan = trajloc.TrajectoryParams(m, float("nan"), (0.0,))
    for params, needle in ((cell.sources[:2], "estimates for K"), ([bad] * 4, "outside"), ([nan] * 4, "non-finite")):
        trial.outputs[0].params = list(params)
        ((algorithm, msg),) = run.failures(trajloc, [trial], config, cell)
        assert algorithm == trial.outputs[0].algorithm and needle in msg
    assert run.problems([("tl-cbf", "x")], [trial], config) == ["tl-cbf: 1 of 1 invocations failed"]


def test_tail_percentile():
    xs = list(range(1, 101))
    value, label, beyond = run.tail(xs)
    assert (value, beyond) == (90, 10) and sum(x > value for x in xs) == 10
    assert run.tail([3.0, 1.0, 2.0])[0] == 2.0


def test_metric_names_and_benchmark_json_agree():
    e2e = [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]]
    per_layer = [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]]
    assert e2e == list(run.END_TO_END)
    assert per_layer == list(run.PER_LAYER)
    names = [n for n, _ in e2e + per_layer]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert run.ALGORITHMS == trajloc.harness.ALGORITHMS
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert all(w["why"] == WORKLOADS[w["name"]].why for w in BENCHMARK["workloads"])


def test_predictions_name_known_metrics_and_workloads():
    known = {m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
    for row in PREDICTIONS["predictions"]:
        assert set(row["layer_metrics"]) <= known
        assert set(row["moves"]) <= known
        assert set(row["on"]) | set(row["no_change_on"]) <= set(WORKLOADS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_wrapped_names_hit_on_predicted_workload(name):
    config, cell = setup(WORKLOADS[name], ROOT)
    plain = run.run_trials(trajloc, config, [11])
    tr = Tracer()
    with layers.install(trajloc, tr):
        traced = run.run_trials(trajloc, config, [11], tracer=tr)
    assert run.row_key(plain[0]) == run.row_key(traced[0])
    calls = layers.span_metrics(tr, 1)
    hit = {s for s in layers.SPAN_NAMES if s == "harness.run_scenario" or calls[f"{s}.calls"] > 0}
    assert hit == EXPECTED_HITS[name]
