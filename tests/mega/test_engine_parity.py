"""Byte-parity: the arena engine IS the per-node kernel, batched.

The contract (ISSUE 8): at overlapping sizes, same seeds, all four
schemes, the arena engine's classifications equal the per-node
``SimulationKernel``'s byte for byte — same summary digests, same
quanta, same collection order.  Everything the arena does differently
(vectorised pairing, slab routing, problem dedup, certified no-ops over
interned ids) must be observationally invisible.

These tests compare the full ordered ``(digest, quanta)`` state of every
node, which catches ordering bugs an unordered comparison would forgive
(the EM seed order and greedy partition order are deterministic and must
be reproduced exactly).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import fingerprint
from repro.data.generators import fence_fire_values
from repro.mega import ArenaEngine
from repro.network.simulator import RoundRobinSelector
from repro.network.topology import TOPOLOGY_BUILDERS
from repro.protocols.classification import build_classification_network
from repro.schemes.centroid import CentroidScheme
from repro.schemes.diagonal import DiagonalGaussianScheme
from repro.schemes.gm import GaussianMixtureScheme
from repro.schemes.histogram import HistogramScheme

N = 60
ROUNDS = 12


def _values(dimension: int) -> np.ndarray:
    return np.random.default_rng(3).normal(size=(N, dimension))


def _kernel_states(values, scheme, k, seed, rounds, topology="complete", selector=None):
    graph = TOPOLOGY_BUILDERS[topology](len(values))
    kernel, nodes = build_classification_network(
        values, scheme, k, graph=graph, seed=seed, selector=selector, merge_cache=True
    )
    kernel.run(rounds)
    digest = scheme.summary_digest
    return [
        tuple((digest(c.summary), c.quanta) for c in node.classification)
        for node in nodes
    ]


def _engine_states(engine: ArenaEngine):
    return [engine.state_digests(node) for node in range(engine.arena.n)]


SCHEMES = [
    pytest.param(lambda: GaussianMixtureScheme(seed=0), 3, 2, id="gm"),
    pytest.param(lambda: CentroidScheme(), 3, 2, id="centroid"),
    pytest.param(lambda: DiagonalGaussianScheme(seed=0), 2, 2, id="diagonal"),
    pytest.param(lambda: HistogramScheme(low=-4.0, high=4.0, bins=12), 3, 1, id="histogram"),
]


@pytest.mark.parametrize("make_scheme, k, dimension", SCHEMES)
@pytest.mark.parametrize("seed", [0, 7])
def test_engine_matches_kernel(make_scheme, k, dimension, seed):
    values = _values(dimension)
    expected = _kernel_states(values, make_scheme(), k, seed, ROUNDS)
    engine = ArenaEngine(values, make_scheme(), k, seed=seed, use_cache=True)
    engine.run(ROUNDS)
    assert _engine_states(engine) == expected


@pytest.mark.parametrize("topology", ["ring", "star", "line"])
def test_engine_matches_kernel_on_sparse_topologies(topology):
    values = _values(2)
    scheme_a, scheme_b = GaussianMixtureScheme(seed=0), GaussianMixtureScheme(seed=0)
    expected = _kernel_states(values, scheme_a, 3, 5, ROUNDS, topology=topology)
    engine = ArenaEngine(values, scheme_b, 3, seed=5, topology=topology, use_cache=True)
    engine.run(ROUNDS)
    assert _engine_states(engine) == expected


def test_engine_matches_kernel_with_round_robin_selector():
    # RoundRobinSelector is stateful per node, so the engine must fall
    # back to the kernel's scalar draw loop — and still match exactly.
    values = _values(2)
    expected = _kernel_states(
        values, CentroidScheme(), 3, 2, ROUNDS, selector=RoundRobinSelector()
    )
    engine = ArenaEngine(
        values, CentroidScheme(), 3, seed=2, selector=RoundRobinSelector(), use_cache=True
    )
    engine.run(ROUNDS)
    assert _engine_states(engine) == expected


def test_engine_matches_kernel_without_merge_cache():
    values = _values(2)
    graph = TOPOLOGY_BUILDERS["complete"](N)
    kernel, nodes = build_classification_network(
        values, GaussianMixtureScheme(seed=0), 3, graph=graph, seed=4, merge_cache=False
    )
    kernel.run(ROUNDS)
    scheme = GaussianMixtureScheme(seed=0)
    engine = ArenaEngine(values, scheme, 3, seed=4, use_cache=False)
    engine.run(ROUNDS)
    digest = scheme.summary_digest
    expected = [
        tuple((digest(c.summary), c.quanta) for c in node.classification)
        for node in nodes
    ]
    assert _engine_states(engine) == expected


def test_engines_build_the_same_certificates_on_continuous_data(monkeypatch):
    """Certificates are built only for receives that could be no-ops.

    On the paper's continuous data almost no receive keeps every incoming
    collection at a local location, so the kernel builds next to no
    identity certificates; the arena must build exactly as many, not one
    per full solve.
    """
    values, _ = fence_fire_values(200, 5)
    built = []
    original = fingerprint._build_certificate

    def counting(*args, **kwargs):
        built.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(fingerprint, "_build_certificate", counting)
    graph = TOPOLOGY_BUILDERS["complete"](len(values))
    kernel, _ = build_classification_network(
        values, GaussianMixtureScheme(seed=5), 7, graph=graph, seed=5, merge_cache=True
    )
    kernel.run(10)
    kernel_builds = len(built)
    built.clear()
    engine = ArenaEngine(values, GaussianMixtureScheme(seed=5), 7, seed=5, use_cache=True)
    engine.run(10)
    assert engine.stats.full_solves > 500
    assert len(built) == kernel_builds


def test_quanta_conserved_across_rounds():
    values = _values(2)
    engine = ArenaEngine(values, GaussianMixtureScheme(seed=0), 3, seed=0)
    total = engine.arena.total_quanta()
    for _ in range(5):
        engine.run_round()
        assert engine.arena.total_quanta() == total


def test_quiescence_on_discrete_values():
    centers = np.array([[0.0, 0.0], [8.0, 8.0], [-8.0, 8.0]])
    values = centers[np.random.default_rng(11).integers(0, 3, size=200)]
    engine = ArenaEngine(values, GaussianMixtureScheme(seed=0), 3, seed=11, use_cache=True)
    executed = engine.run(100, stop_on_quiescence=True)
    assert engine.quiescent
    assert engine.quiescent_at == executed < 100
    # Converged: every node holds the same summary multiset.
    reference = set(engine.arena.ids[0, : int(engine.arena.counts[0])].tolist())
    for node in range(engine.arena.n):
        count = int(engine.arena.counts[node])
        assert set(engine.arena.ids[node, :count].tolist()) == reference


def test_stats_account_for_every_receiver():
    values = _values(2)
    engine = ArenaEngine(values, GaussianMixtureScheme(seed=0), 3, seed=1, use_cache=True)
    engine.run(8)
    stats = engine.stats
    assert stats.rounds == 8
    assert stats.receivers > 0
    handled = (
        stats.memo_round_hits
        + stats.memo_lru_hits
        + stats.noop_hits
        + stats.fastpath_hits
        + stats.full_solves
    )
    # Every receiver either hit a memo or ran one of the solve paths.
    assert stats.memo_round_hits + stats.memo_lru_hits <= stats.receivers
    assert handled == stats.receivers


def test_pull_variant_rejected():
    with pytest.raises(ValueError, match="push"):
        ArenaEngine(_values(2), CentroidScheme(), 3, variant="pull")
