"""Tests of the benchmark itself: request lists, truth checks, spans and unpatching."""

import json
import math
import os

import pytest

import run
import spans
import workloads
import worker

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def ill():
    return worker.load_illposed(ROOT)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_request_list(workload):
    first = workloads.requests(workload, 7, 3)
    assert first == workloads.requests(workload, 7, 3)
    names = [r.name for r in first]
    assert len(set(names)) == len(names)
    # other seeds and passes reorder the same requests
    others = [workloads.requests(workload, 8, 3), workloads.requests(workload, 7, 4)]
    for other in others:
        assert sorted(r.name for r in other) == sorted(names)
    assert any([r.name for r in other] != names for other in others)


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        list(spans.PER_LAYER)


def test_self_times_of_nested_spans():
    recs = [[0, "a", 0.0, 10.0, -1, 0, 0, None],
            [1, "b", 2.0, 5.0, 0, 0, 0, None],
            [2, "c", 3.0, 4.0, 1, 0, 0, None],
            [3, "d", 6.0, 9.0, 0, 0, 0, None]]
    assert spans.self_times(recs) == [4.0, 2.0, 1.0, 3.0]


def _traced_requests(ill, tmp_path):
    chosen = {"analyze multiplier_a1", "round trip hausdorff", "criterion 7"}
    reqs = [r for w in workloads.WORKLOADS for r in workloads.requests(w, 0)
            if r.name in chosen]
    tracer = spans.Tracer()
    with tracer.instrument(ill):
        for i, req in enumerate(reqs):
            with tracer.request(i):
                workloads.execute(ill, req, workloads.out_path(str(tmp_path), i, req))
    return tracer


def test_spans_nest_and_self_times_are_nonnegative(ill, tmp_path):
    tracer = _traced_requests(ill, tmp_path)
    recs = tracer.spans
    names = {rec[spans.NAME] for rec in recs}
    assert {"cli.main", "distribution.essinf", "distribution.rearrange",
            "distribution.reweight", "acceptance.criterion_7"} <= names
    children = {}
    for rec in recs:
        assert rec[spans.END] >= rec[spans.START]
        if rec[spans.PARENT] >= 0:
            parent = recs[rec[spans.PARENT]]
            assert parent[spans.START] <= rec[spans.START]
            assert rec[spans.END] <= parent[spans.END]
            assert rec[spans.REQUEST] == parent[spans.REQUEST]
            children.setdefault(parent[spans.ID], []).append(rec)
        else:
            assert rec[spans.NAME] == "request"
    for kids in children.values():
        for a, b in zip(kids, kids[1:]):
            assert a[spans.END] <= b[spans.START]
    assert all(t >= 0 for t in spans.self_times(recs))
    values = spans.layer_metrics(recs, tracer.counters)
    assert values["distribution.essinf.fn_calls"] > 0
    assert values["distribution.closed_hook_calls"] > 0
    assert 0 < values["distribution.closed_share"] <= 1


def test_wrappers_are_gone_after_a_traced_run(ill, tmp_path):
    targets = [(owner, attr) for owner, attr, _ in spans.Tracer().replacements(ill)]
    before = [getattr(owner, attr) for owner, attr in targets]
    tracer = spans.Tracer()
    with tracer.instrument(ill):
        assert all(getattr(o, a) is not b for (o, a), b in zip(targets, before))
    assert all(getattr(o, a) is b for (o, a), b in zip(targets, before))
    with pytest.raises(RuntimeError):
        with tracer.instrument(ill):
            raise RuntimeError("a request crashed")
    assert all(getattr(o, a) is b for (o, a), b in zip(targets, before))
    assert not hasattr(ill.gallery.make("hausdorff").multiplier.fn, "__wrapped__")


def test_wrong_answers_are_caught(ill, tmp_path):
    path = tmp_path / "out.json"
    path.write_text(json.dumps({"classification": "mild", "degree": None,
                                "diagnostics": {}}))
    req = workloads.Request("analyze hausdorff", "cli_analyze",
                            ("analyze", "--model", "hausdorff"))
    outcome = workloads.Outcome(exit_code=0, out_path=str(path))
    failed, mismatch, _ = workloads.verify(ill, req, outcome)
    assert not failed and "truth severe" in mismatch
    failed, _, _ = workloads.verify(ill, req, workloads.Outcome(exit_code=2))
    assert failed


def test_reweighting_truths_match_their_closed_forms():
    # Phi under exp(k^2) at eps = exp(-9)/2 sums k = -3..3
    expected = 1 + 2 * (math.e + math.e ** 4 + math.e ** 9)
    assert math.isclose(workloads._heat_reweighted(math.exp(-9) / 2), expected)
    assert math.isclose(workloads._hausdorff_reweighted(1e-2), 100 - 1 / (2 * math.pi))


def test_run_refuses_a_directory_without_sources(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "check", "--seed", "1", "--seconds", "1"]) == 2
    assert not os.listdir(tmp_path)
