"""End-to-end receive-path parity: packed path vs object path.

A default node runs the packed receive path; ``validate=True`` forces
the object reference path.  The contract is byte-parity: for every
scheme and both schedulers, a network run on the packed path must
produce bit-for-bit the same classifications, the same protocol event
trace (splits, merges, fast-path adoptions, cache hits) and the same
per-node counters as the object path.  These runs are small (the
tier-1 suite runs them); the benchmarks and ``tests/mega`` cover the
same contract at scale.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.network.topology import ring
from repro.obs.events import RingBufferSink
from repro.protocols.classification import build_classification_network
from repro.schemes.centroid import CentroidScheme
from repro.schemes.diagonal import DiagonalGaussianScheme
from repro.schemes.gaussian import GaussianSummary
from repro.schemes.gm import GaussianMixtureScheme
from repro.schemes.histogram import HistogramScheme

N = 16
ROUNDS = 12
SCHEME_NAMES = ["centroid", "gm", "diagonal", "histogram"]
ENGINES = ["rounds", "async"]
TRACE_KINDS = ("split", "merge", "fastpath", "cache")


def _values(name: str) -> np.ndarray:
    rng = np.random.default_rng(7)
    clustered = rng.normal(size=(N, 2)) + np.repeat(
        [[0.0, 0.0], [6.0, 6.0]], N // 2, axis=0
    )
    return clustered[:, 0] if name == "histogram" else clustered


def _scheme(name: str):
    if name == "centroid":
        return CentroidScheme()
    if name == "gm":
        return GaussianMixtureScheme(seed=3)
    if name == "diagonal":
        return DiagonalGaussianScheme(seed=3)
    return HistogramScheme(-12.0, 12.0, bins=16)


def _summary_bytes(summary) -> bytes:
    if isinstance(summary, GaussianSummary):
        return summary.mean.tobytes() + summary.cov.tobytes()
    return np.asarray(summary, dtype=float).tobytes()


def _run(name: str, engine: str, native: bool):
    sink = RingBufferSink(capacity=100000)
    kernel, nodes = build_classification_network(
        _values(name),
        _scheme(name),
        k=3,
        graph=ring(N),
        seed=11,
        engine=engine,
        event_sink=sink,
        validate=not native,
    )
    assert all(node.native is native for node in nodes)
    kernel.run(ROUNDS)
    states = [
        [(c.quanta, _summary_bytes(c.summary)) for c in node.classification]
        for node in nodes
    ]
    trace = [
        (event.kind, event.node, event.items)
        for event in sink.events
        if event.kind in TRACE_KINDS
    ]
    stats = [node.stats.as_dict() for node in nodes]
    return states, trace, stats


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name", SCHEME_NAMES)
def test_native_and_fallback_runs_are_byte_identical(name, engine):
    native = _run(name, engine, native=True)
    fallback = _run(name, engine, native=False)
    assert native[0] == fallback[0], "classification states diverged"
    assert native[1] == fallback[1], "protocol event traces diverged"
    assert native[2] == fallback[2], "per-node counters diverged"


def test_status_reports_tier():
    from repro import native as native_package

    status = native_package.status()
    assert status["tier"] == "numpy"
    assert status["numpy_version"] == np.__version__
