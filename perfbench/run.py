"""The repository benchmark: one workload per invocation, outputs checked.

Usage, from the repository root::

    python3 perfbench/run.py --workload fig2-arena-1k --seed 11 --seconds 20 --trace 0
    python3 perfbench/run.py --workload centers-sharded-50k --seed 11 --trace 1 --out a.jsonl
    python3 perfbench/run.py --compare a.jsonl b.jsonl

``--trace 0`` measures the end-to-end metrics with nothing wrapped:
whole runs (set-up, then rounds to the horizon or to quiescence) are
repeated while another one still fits in ``--seconds``, and each metric
is the median over those runs.  Times are reported both as measured and
scaled to a reference host speed (see ``machine``); the scaled ones carry
the bounds.  ``--trace 1`` runs the workload once
untraced and once with the layer tracer installed (plus, for the
sharded workload, once on the single-process arena for the cross-engine
counter check) and reports the per-layer metrics.

Every run's outputs are checked (see ``workloads.check_outputs``); a run
whose check fails counts in ``failed``.  The full record -- machine,
per-run details, every metric with its unit -- is printed as one JSON
line (and appended to ``--out``); the last line of standard output is
the summary ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import json
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "repro").is_dir():
    # Measure the checkout's own sources, never an installed copy.
    raise SystemExit(f"perfbench: no repro sources under {SRC}")
sys.path.insert(0, str(SRC))

from repro.core.fingerprint import MergeCache  # noqa: E402
from repro.mega.arena import SummaryInterner  # noqa: E402
from repro.mega.engine import ArenaEngine, GossipPairing, ReceiveSolver  # noqa: E402
from repro.mega.shard import ShardedArenaEngine  # noqa: E402
from repro.network.kernel import SimulationKernel  # noqa: E402
from repro.protocols.classification import ClassificationProtocol  # noqa: E402
from repro.schemes.gm import GaussianMixtureScheme  # noqa: E402

from compare import compare_files  # noqa: E402
from machine import (  # noqa: E402
    CALIBRATION_REFERENCE_S,
    calibration_s,
    machine_record,
    peak_rss_mb,
    rss_mb,
    stop_processes,
)
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Workload, check_outputs, make_inputs, setup  # noqa: E402

#: Engine builds timed per invocation: at least ``SETUP_REPEATS``, and
#: more until ``SETUP_SECONDS`` of wall time have passed, so millisecond
#: set-ups get enough samples for a steady median.  ``setup_s`` is their
#: median.
SETUP_REPEATS = 5
SETUP_SECONDS = 1.0

#: Marks a per-layer value the workload spends time on but the benchmark
#: cannot observe (work inside shard workers, a counter the engine drops).
UNAVAILABLE = -1

_SOLVE_TARGETS = [
    (GaussianMixtureScheme, "partition_packed", "schemes.gm.partition"),
    (GaussianMixtureScheme, "merge_groups_columns", "schemes.gm.merge"),
    (GaussianMixtureScheme, "merge_set_packed", "schemes.gm.merge"),
    (MergeCache, "certificate_for", "core.fingerprint.certificate"),
    (SummaryInterner, "intern_rows", "mega.arena.intern"),
    (SummaryInterner, "intern_row", "mega.arena.intern"),
]

#: The public methods each engine's traced run wraps, by layer.
TRACE_TARGETS = {
    "kernel": [
        (SimulationKernel, "run", "network.kernel"),
        (ClassificationProtocol, "make_payload", "core.node.split"),
        (ClassificationProtocol, "receive_batch", "core.node.receive"),
    ] + _SOLVE_TARGETS,
    "arena": [
        (ArenaEngine, "run", "mega.engine.run"),
        (ArenaEngine, "run_round", "mega.engine.round"),
        (GossipPairing, "draw", "mega.engine.pairing"),
        (ReceiveSolver, "receive_slab", "mega.engine.receive"),
    ] + _SOLVE_TARGETS,
    # The workers are forked before the tracer is installed, so only the
    # parent's calls are wrapped; worker time arrives as phase_seconds.
    "sharded": [
        (ShardedArenaEngine, "run", "mega.shard.run"),
        (ShardedArenaEngine, "run_round", "mega.shard.round"),
    ],
}

#: Whole-run metrics and their units.  ``wall_s`` and ``setup_s`` are
#: scaled to the reference host speed (see ``machine``); the ``_raw_s``
#: twins are the same intervals as measured, and ``calibration_s`` shows
#: the host speed the run got.  Only ``END_TO_END`` carry a regression
#: bound in BENCHMARK.json; the rest vary with the host or the seed by
#: design (raw times, rounds to quiescence, sampling error, a 0 failure
#: share), so they are reported beside the per-layer metrics instead.
RUN_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "rss_growth_mb": "MB",
    "wall_raw_s": "s",
    "setup_raw_s": "s",
    "calibration_s": "s",
    "node_rounds_per_s": "1/s",
    "rounds": "count",
    "classification_error": "1",
    "failed_fraction": "ratio",
}
END_TO_END = ("wall_s", "setup_s", "peak_rss_mb", "rss_growth_mb")


#: Set-up samples: (seconds as measured, seconds at reference speed).
Setups = List[Tuple[float, float]]


def _timed_setup(workload: Workload, inputs: Any, seed: int, setups: Setups) -> Any:
    """Build the engine and record how long that took in ``setups``."""
    gc.collect()
    before = calibration_s()
    start = time.perf_counter()
    engine = setup(workload, inputs, seed)
    elapsed = time.perf_counter() - start
    speed = CALIBRATION_REFERENCE_S / ((before + calibration_s()) / 2)
    setups.append((elapsed, elapsed * speed))
    return engine


def run_once(
    workload: Workload,
    inputs: Any,
    seed: int,
    setups: Setups,
    tracer: Optional[Tracer] = None,
) -> Dict[str, Any]:
    """Set up, run to the horizon or quiescence, check; one run's record.

    Rounds are timed one at a time, with a calibration sample between
    consecutive rounds (outside the timed intervals), so each round's
    time can be scaled by the host speed measured around it.
    """
    engine = _timed_setup(workload, inputs, seed, setups)
    try:
        gc.collect()
        calibrations = [calibration_s()]
        wall = ref_wall = 0.0
        rounds = 0
        rss_round1 = None
        with tracer if tracer is not None else contextlib.nullcontext():
            while rounds < workload.rounds and not engine.quiescent:
                start = time.perf_counter()
                rounds += engine.run(1)
                elapsed = time.perf_counter() - start
                if rss_round1 is None:
                    rss_round1 = rss_mb()
                calibrations.append(calibration_s())
                wall += elapsed
                ref_wall += elapsed * CALIBRATION_REFERENCE_S / (
                    (calibrations[-2] + calibrations[-1]) / 2
                )
        rss_end = rss_mb()
        peak = peak_rss_mb()
        counters = engine.counters()
        state = engine.final_state()
        exchange = engine.exchange
    finally:
        engine.close()
    error, failures = check_outputs(workload, state, inputs)
    return {
        "wall_raw_s": wall,
        "wall_s": ref_wall,
        "calibration_s": statistics.median(calibrations),
        "rounds": rounds,
        "rss_round1_mb": rss_round1,
        "rss_end_mb": rss_end,
        "peak_rss_mb": peak,
        "classification_error": error,
        "failures": failures,
        "counters": counters,
        "exchange": exchange,
    }


def measure(workload: Workload, seed: int, seconds: float) -> Dict[str, Any]:
    """The untraced runs; end-to-end metrics are medians over them."""
    inputs = make_inputs(workload, seed)
    setups: Setups = []
    deadline = time.perf_counter() + SETUP_SECONDS
    while len(setups) < SETUP_REPEATS - 1 or time.perf_counter() < deadline:
        _timed_setup(workload, inputs, seed, setups).close()
    runs: List[Dict[str, Any]] = []
    start = time.perf_counter()
    while True:
        runs.append(run_once(workload, inputs, seed, setups))
        spent = time.perf_counter() - start
        if spent + spent / len(runs) > seconds:
            break
    return {
        "runs": runs,
        "setup_samples": len(setups),
        "metrics": run_metrics(workload, runs, setups),
        "unavailable": {},
    }


def run_metrics(
    workload: Workload, runs: List[Dict[str, Any]], setups: Setups
) -> Dict[str, Dict[str, Any]]:
    """Medians over ``runs`` of every whole-run metric, with units."""
    median = statistics.median
    values = {
        "wall_s": median(run["wall_s"] for run in runs),
        "setup_s": median(reference for _, reference in setups),
        "peak_rss_mb": max(run["peak_rss_mb"] for run in runs),
        "rss_growth_mb": median(run["rss_end_mb"] - run["rss_round1_mb"] for run in runs),
        "wall_raw_s": median(run["wall_raw_s"] for run in runs),
        "setup_raw_s": median(raw for raw, _ in setups),
        "calibration_s": median(run["calibration_s"] for run in runs),
        "node_rounds_per_s": median(
            workload.nodes * run["rounds"] / run["wall_s"] for run in runs
        ),
        "rounds": median(run["rounds"] for run in runs),
        "classification_error": median(run["classification_error"] for run in runs),
        "failed_fraction": sum(1 for run in runs if run["failures"]) / len(runs),
    }
    return {name: _metric(value, RUN_UNITS[name]) for name, value in values.items()}


def trace(workload: Workload, seed: int) -> Dict[str, Any]:
    """One untraced and one traced run; the per-layer metrics."""
    inputs = make_inputs(workload, seed)
    setups: Setups = []
    base = run_once(workload, inputs, seed, setups)
    tracer = Tracer(TRACE_TARGETS[workload.engine])
    traced = run_once(workload, inputs, seed, setups, tracer=tracer)
    runs = [base, traced]
    single = None
    if workload.engine == "sharded":
        single = run_once(dataclasses.replace(workload, engine="arena"), inputs, seed, setups)
        runs.append(single)
        _check_shard_invariants(traced, single)
    values, unavailable = layer_metrics(workload, tracer, base, traced, single)
    metrics = {name: _metric(value, unit) for name, (value, unit) in values.items()}
    whole = run_metrics(workload, [base], setups)
    for name in RUN_UNITS:
        if name not in END_TO_END and name != "failed_fraction":
            metrics[name] = whole[name]
    metrics["failed_fraction"] = run_metrics(workload, runs, setups)["failed_fraction"]
    return {
        "runs": runs,
        "layers": {
            layer: {"calls": t.calls, "total_s": t.total_s, "self_s": t.self_s}
            for layer, t in tracer.layers.items()
        },
        "metrics": metrics,
        "unavailable": unavailable,
    }


#: Counters that must match between the sharded and single-process runs.
SHARD_INVARIANT = ("messages", "receivers", "merges")


def _check_shard_invariants(sharded: Dict[str, Any], single: Dict[str, Any]) -> None:
    ours = sharded["counters"]["arena"]
    theirs = single["counters"]["arena"]
    for name in SHARD_INVARIANT:
        if ours[name] != theirs[name]:
            sharded["failures"].append(
                f"sharded {name} {ours[name]} != single-process {theirs[name]}"
            )


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    workload: Workload,
    tracer: Tracer,
    base: Dict[str, Any],
    traced: Dict[str, Any],
    single: Optional[Dict[str, Any]],
) -> tuple[Dict[str, tuple[float, str]], Dict[str, str]]:
    """Every per-layer metric for one workload, with its unit.

    A layer the workload does not run reads 0; a value it runs but the
    benchmark cannot observe reads ``UNAVAILABLE`` and is named, with
    the reason, in the returned ``unavailable`` map.
    """
    layers = tracer.layers

    def get(layer: str, field: str) -> float:
        times = layers.get(layer)
        return getattr(times, field) if times is not None else 0

    counters = traced["counters"]
    node = counters.get("node", {})
    arena = counters.get("arena", {})
    unavailable: Dict[str, str] = {}
    out: Dict[str, tuple[float, str]] = {
        "network.kernel.self_s": (get("network.kernel", "self_s"), "s"),
        "core.node.split_s": (get("core.node.split", "total_s"), "s"),
        "core.node.split_calls": (get("core.node.split", "calls"), "count"),
        "core.node.receive_s": (get("core.node.receive", "total_s"), "s"),
        "core.node.receive_self_s": (get("core.node.receive", "self_s"), "s"),
        "core.node.receive_calls": (get("core.node.receive", "calls"), "count"),
        "mega.engine.run_self_s": (get("mega.engine.run", "self_s"), "s"),
        "mega.engine.pairing_s": (get("mega.engine.pairing", "total_s"), "s"),
        "mega.engine.split_s": (get("mega.engine.round", "self_s"), "s"),
        "mega.engine.receive_s": (get("mega.engine.receive", "total_s"), "s"),
        "mega.engine.receive_self_s": (get("mega.engine.receive", "self_s"), "s"),
        "schemes.gm.partition_s": (get("schemes.gm.partition", "self_s"), "s"),
        "schemes.gm.partition_calls": (get("schemes.gm.partition", "calls"), "count"),
        "schemes.gm.merge_s": (get("schemes.gm.merge", "self_s"), "s"),
        "schemes.gm.merge_calls": (get("schemes.gm.merge", "calls"), "count"),
        "core.fingerprint.certificate_s": (get("core.fingerprint.certificate", "self_s"), "s"),
        "core.fingerprint.certificate_calls": (
            get("core.fingerprint.certificate", "calls"), "count"
        ),
        "mega.arena.intern_s": (get("mega.arena.intern", "self_s"), "s"),
        "mega.arena.intern_calls": (get("mega.arena.intern", "calls"), "count"),
        "mega.arena.interner_ids": (counters.get("interner_ids", 0), "count"),
        "core.fingerprint.cache_entries": (counters.get("cache_entries", 0), "count"),
    }
    noop_hits = counters["noop_hits"] if "node" in counters else arena.get("noop_hits", 0)
    out["core.fingerprint.certificate_hit_ratio"] = (
        _ratio(noop_hits, get("core.fingerprint.certificate", "calls")), "ratio"
    )
    for name, field in (
        ("receivers", "batches_received"),
        ("fastpath_hits", "fastpath_hits"),
        ("memo_hits", "cache_memo_hits"),
        ("noop_hits", "cache_noop_hits"),
        ("full_solves", "partition_calls"),
        ("merges", "merges"),
    ):
        out[f"core.node.{name}"] = (node.get(field, 0), "count")
    out["core.node.dedup_ratio"] = (
        1.0 - _ratio(node.get("partition_calls", 0), node.get("batches_received", 0))
        if node else 0.0,
        "ratio",
    )
    for name in (
        "receivers", "fastpath_hits", "memo_round_hits", "memo_lru_hits",
        "noop_hits", "noop_sweep_hits", "full_solves", "merges",
    ):
        out[f"mega.engine.{name}"] = (arena.get(name, 0), "count")
    out["mega.engine.dedup_ratio"] = (
        1.0 - _ratio(arena.get("full_solves", 0), arena.get("receivers", 0)) if arena else 0.0,
        "ratio",
    )

    phases = counters.get("phase_seconds", {})
    for phase in ("split", "route", "deliver"):
        out[f"mega.shard.{phase}_s"] = (phases.get(phase, 0.0), "s")
    out["mega.shard.round_self_s"] = (
        get("mega.shard.round", "self_s") - sum(phases.values()), "s"
    )
    out["mega.shard.run_self_s"] = (get("mega.shard.run", "self_s"), "s")
    shard_solves = sum(entry["full_solves"] for entry in counters.get("solver", []))
    out["mega.shard.full_solves"] = (shard_solves, "count")
    out["mega.shard.dup_solve_ratio"] = (
        _ratio(shard_solves, single["counters"]["arena"]["full_solves"]) - 1.0
        if single is not None else 0.0,
        "ratio",
    )
    out["mega.shard.restarts"] = (counters.get("restarts", 0), "count")

    if workload.engine == "sharded":
        unavailable["mega.engine.noop_sweep_hits"] = (
            "ShardedArenaEngine.stats drops noop_sweep_hits"
        )
        for name in (
            "schemes.gm.partition_s", "schemes.gm.partition_calls",
            "schemes.gm.merge_s", "schemes.gm.merge_calls",
            "core.fingerprint.certificate_s", "core.fingerprint.certificate_calls",
            "core.fingerprint.certificate_hit_ratio",
            "mega.arena.intern_s", "mega.arena.intern_calls",
            "mega.arena.interner_ids", "core.fingerprint.cache_entries",
        ):
            unavailable[name] = "runs inside the shard workers, which are not traced"
        for name in unavailable:
            out[name] = (UNAVAILABLE, out[name][1])

    out["trace_overhead"] = (traced["wall_s"] / base["wall_s"] - 1.0, "ratio")
    out["trace.accounted_ratio"] = (tracer.accounted_s() / traced["wall_raw_s"], "ratio")
    return out, unavailable


def _metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def main(argv: Optional[List[str]] = None) -> int:
    try:
        return _main(argv)
    finally:
        stop_processes()


def _main(argv: Optional[List[str]]) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", metavar="FILE", help="append the full record as a JSON line")
    parser.add_argument(
        "--compare", nargs=2, metavar=("BASE", "NEW"),
        help="diff two files of records written with --out",
    )
    args = parser.parse_args(argv)
    if args.compare:
        return compare_files(args.compare[0], args.compare[1], ROOT / "BENCHMARK.json")
    if args.workload is None:
        parser.error("--workload is required unless --compare is given")

    workload = WORKLOADS[args.workload]
    if args.trace:
        result = trace(workload, args.seed)
    else:
        result = measure(workload, args.seed, args.seconds)
    runs = result["runs"]
    failed = sum(1 for run in runs if run["failures"])
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_record(ROOT, runs[0]["exchange"]),
        **result,
    }
    line = json.dumps(record, sort_keys=True)
    print(line)
    if args.out:
        with open(args.out, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
    for run in runs:
        for failure in run["failures"]:
            print(f"check failed: {failure}", file=sys.stderr)
    metrics = result["metrics"]
    if not args.trace:
        metrics = {name: metrics[name] for name in END_TO_END}
    summary = {"correct": failed == 0, "attempted": len(runs), "failed": failed, "metrics": metrics}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
