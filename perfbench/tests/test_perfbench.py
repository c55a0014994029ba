"""Self-test of the benchmark harness at tiny sizes.

Run from the repository root with ``python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from compare import compare_records  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, check_outputs, make_inputs, setup  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

# 60 nodes: fixed-horizon workloads stop after 6 rounds, far from
# converged, and a 60-node population quiesces with coarser weights than
# 50k, so the centers' error tolerance is widened accordingly.
TINY = {
    name: dataclasses.replace(
        workload,
        nodes=60,
        rounds=40 if workload.to_quiescence else 6,
        error_tolerance=0.05 if workload.to_quiescence else None,
    )
    for name, workload in WORKLOADS.items()
}


def test_spec_matches_the_harness():
    assert [entry["name"] for entry in SPEC["workloads"]] == list(WORKLOADS)
    assert [entry["name"] for entry in SPEC["end_to_end"]] == list(run.END_TO_END)
    for entry in SPEC["end_to_end"]:
        assert entry["unit"] == run.RUN_UNITS[entry["name"]]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_measure_emits_every_end_to_end_metric(name):
    result = run.measure(TINY[name], seed=3, seconds=0.0)
    assert all(not entry["failures"] for entry in result["runs"])
    metrics = result["metrics"]
    for entry in SPEC["end_to_end"]:
        assert metrics[entry["name"]]["unit"] == entry["unit"]
    for name in ("wall_s", "setup_s", "peak_rss_mb"):
        assert metrics[name]["value"] > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_trace_emits_every_per_layer_metric(name):
    result = run.trace(TINY[name], seed=3)
    assert all(not entry["failures"] for entry in result["runs"])
    expected = {entry["name"]: entry["unit"] for entry in SPEC["per_layer"]}
    metrics = result["metrics"]
    assert {metric: value["unit"] for metric, value in metrics.items()} == expected
    for metric in result["unavailable"]:
        assert metrics[metric]["value"] == run.UNAVAILABLE
    # Self times along the blocking path account for the traced run.
    assert 0.9 < metrics["trace.accounted_ratio"]["value"] <= 1.0
    if TINY[name].engine == "sharded":
        assert "mega.engine.noop_sweep_hits" in result["unavailable"]
        assert metrics["mega.shard.deliver_s"]["value"] > 0
    elif TINY[name].engine == "arena":
        assert metrics["mega.engine.receive_s"]["value"] > 0
        assert metrics["mega.engine.pairing_s"]["value"] > 0
    else:
        assert metrics["core.node.receive_s"]["value"] > 0


def test_main_leaves_no_process_behind(monkeypatch, capsys):
    monkeypatch.setattr(run, "WORKLOADS", TINY)
    argv = ["--workload", "centers-sharded-50k", "--seed", "3", "--seconds", "0", "--trace", "0"]
    assert run.main(argv) == 0
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary["correct"] and summary["failed"] == 0
    # Workers and the shared-memory resource tracker are ended and reaped.
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _finished_state(workload, seed=3):
    inputs = make_inputs(workload, seed)
    engine = setup(workload, inputs, seed)
    try:
        engine.run(workload.rounds)
        return engine.final_state(), inputs
    finally:
        engine.close()


def test_checks_accept_a_clean_run():
    workload = TINY["centers-arena-50k"]
    state, inputs = _finished_state(workload)
    _, failures = check_outputs(workload, state, inputs)
    assert failures == []


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda state: setattr(state, "total_quanta", state.total_quanta + 1), "quanta"),
        (lambda state: state.counts.__setitem__(5, 9), "collections per node"),
        (lambda state: state.first_moment.__setitem__(0, state.first_moment[0] * 1.001),
         "first moment"),
        (lambda state: setattr(state, "quiescent", False), "quiescence"),
        (lambda state: setattr(state, "probe", state.probe[:1]), "classification_error"),
    ],
)
def test_checks_reject_a_corrupted_state(corrupt, message):
    workload = TINY["centers-arena-50k"]
    state, inputs = _finished_state(workload)
    corrupt(state)
    _, failures = check_outputs(workload, state, inputs)
    assert any(message in failure for failure in failures)


def test_shard_invariant_mismatch_is_a_failure():
    sharded = {"counters": {"arena": {"messages": 5, "receivers": 4, "merges": 3}}, "failures": []}
    single = {"counters": {"arena": {"messages": 5, "receivers": 4, "merges": 2}}}
    run._check_shard_invariants(sharded, single)
    assert sharded["failures"] == ["sharded merges 3 != single-process 2"]


def test_compare_flags_moves_beyond_bounds():
    def record(wall, receive):
        return {"workload": "w", "trace": 0,
                "metrics": {"wall_s": {"value": wall, "unit": "s"},
                            "mega.engine.receive_s": {"value": receive, "unit": "s"}}}
    lines, flagged = compare_records([record(10.0, 1.0)], [record(10.5, 1.05)], SPEC)
    assert flagged == 0
    lines, flagged = compare_records([record(10.0, 1.0)], [record(20.0, 1.5)], SPEC)
    assert flagged == 2
    assert any("10 -> 20" in line and "ratio 2.0000" in line for line in lines)


def test_tracer_restores_wrapped_methods():
    class Base:
        def inherited(self):
            return 1

    class Child(Base):
        def own(self):
            return self.inherited() + 1

    own = Child.__dict__["own"]
    tracer = Tracer([(Child, "own", "outer"), (Child, "inherited", "inner")])
    with tracer:
        assert Child().own() == 2
    assert Child.__dict__["own"] is own
    assert "inherited" not in Child.__dict__
    assert tracer.layers["outer"].calls == 1 and tracer.layers["inner"].calls == 1
    outer, inner = tracer.layers["outer"], tracer.layers["inner"]
    assert abs(outer.self_s + inner.self_s - outer.total_s) < 1e-9
