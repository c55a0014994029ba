"""Packed hot path vs object path: byte-identical classifications.

The packed structure-of-arrays path (``docs/performance.md``) is a pure
representation change: a default node, routed through
``partition_packed`` / ``merge_set_packed``, must produce *bit-for-bit*
the same classifications as the object-path conformance reference (a
``validate=True`` node), because both feed identical float values through
the same shared numeric kernels and replicate the same accumulation
order.  These tests pin that contract per scheme, and pin the
``identity_below_k`` fast-path declaration against the scheme's actual
``partition``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.collection import Collection
from repro.core.fingerprint import MergeCache
from repro.core.node import ClassifierNode
from repro.core.scheme import validate_partition
from repro.core.weights import Quantization
from repro.obs.events import RingBufferSink
from repro.schemes.centroid import CentroidScheme
from repro.schemes.diagonal import DiagonalGaussianScheme
from repro.schemes.gaussian import GaussianSummary
from repro.schemes.gm import GaussianMixtureScheme
from repro.schemes.histogram import HistogramScheme

QUANT = Quantization(16)


def _make_scheme(name: str):
    if name == "centroid":
        return CentroidScheme()
    if name == "gm":
        return GaussianMixtureScheme(seed=0)
    if name == "diagonal":
        return DiagonalGaussianScheme(seed=0)
    if name == "histogram":
        return HistogramScheme(low=-10.0, high=10.0, bins=16)
    raise AssertionError(name)


def _make_value(name: str, rng: np.random.Generator):
    if name == "histogram":
        return float(rng.normal(0.0, 3.0))
    return rng.normal(0.0, 3.0, size=2)


SCHEME_NAMES = ["centroid", "gm", "diagonal", "histogram"]


def _summary_bytes(summary) -> bytes:
    if isinstance(summary, GaussianSummary):
        return summary.mean.tobytes() + summary.cov.tobytes()
    return np.asarray(summary, dtype=float).tobytes()


def _classification_bytes(node: ClassifierNode) -> list[tuple[int, bytes]]:
    return [
        (collection.quanta, _summary_bytes(collection.summary))
        for collection in node.classification
    ]


def _ping_pong(name: str, validate: bool, rounds: int = 8, k: int = 3):
    """A deterministic two-node gossip; returns per-round classifications.

    ``validate=False`` gives default (packed-path) nodes; ``validate=True``
    forces the object path.
    """
    rng = np.random.default_rng(42)
    scheme = _make_scheme(name)
    nodes = [
        ClassifierNode(
            i,
            _make_value(name, rng),
            scheme,
            k=k,
            quantization=QUANT,
            validate=validate,
        )
        for i in range(2)
    ]
    history = []
    for _ in range(rounds):
        payload = nodes[0].make_message()
        if payload:
            nodes[1].receive(payload)
        payload = nodes[1].make_message()
        if payload:
            nodes[0].receive(payload)
        history.append([_classification_bytes(node) for node in nodes])
    return history, nodes


class TestPackedObjectParity:
    @pytest.mark.parametrize("name", SCHEME_NAMES)
    def test_ping_pong_classifications_byte_identical(self, name):
        packed_history, packed_nodes = _ping_pong(name, validate=False)
        object_history, object_nodes = _ping_pong(name, validate=True)
        assert packed_history == object_history
        # The receive path is the only difference between the runs.
        assert all(node.native for node in packed_nodes)
        assert not any(node.native for node in object_nodes)
        assert all(node._packed is None for node in object_nodes)

    @pytest.mark.parametrize("name", SCHEME_NAMES)
    def test_stats_counters_identical(self, name):
        _, packed_nodes = _ping_pong(name, validate=False)
        _, object_nodes = _ping_pong(name, validate=True)
        for packed_node, object_node in zip(packed_nodes, object_nodes):
            assert packed_node.stats.as_dict() == object_node.stats.as_dict()

    @pytest.mark.parametrize("name", SCHEME_NAMES)
    def test_packed_state_mirrors_collections(self, name):
        """After arbitrary receive/split traffic the authoritative
        PackedState must equal a fresh packing of the collection list."""
        _, nodes = _ping_pong(name, validate=False)
        for node in nodes:
            fresh = node._pack(node.classification.collections)
            assert np.array_equal(fresh.quanta, node._packed.quanta)
            assert set(fresh.columns) == set(node._packed.columns)
            for key, column in fresh.columns.items():
                assert column.tobytes() == node._packed.columns[key].tobytes()


def _event_log(sink: RingBufferSink) -> list:
    return [
        (event.kind, event.node, event.items, event.extra)
        for event in sink.events
        if event.kind in ("split", "merge", "fastpath", "cache")
    ]


class TestListRoute:
    """A packed node handed plain ``list[Collection]`` packs it on entry.

    Decoded wire frames and mixed batches arrive as collection lists; the
    packed node must consume them through ``receive_packed`` (never the
    object pipeline) and still end byte-identical to an object-path node
    fed the same lists: state bytes, counters, and emitted events.
    """

    @staticmethod
    def _targets(scheme, validate: bool, center, quant):
        """A node plus a twin (ids 0 and 9) sharing one cache and sink.

        The twin receives every list right after the node, so each full
        solve of the node is replayed as a memo hit by the twin.
        """
        sink = RingBufferSink()
        cache = MergeCache()
        nodes = [
            ClassifierNode(
                node_id,
                center,
                scheme,
                k=2,
                quantization=quant,
                validate=validate,
                event_sink=sink,
                merge_cache=cache,
            )
            for node_id in (0, 9)
        ]
        return nodes, sink

    @pytest.mark.parametrize("name", SCHEME_NAMES)
    def test_list_input_matches_object_path(self, name):
        quant = Quantization(2**20)
        if name == "histogram":
            centers = [-3.0, 4.0]
        else:
            centers = [np.array([-3.0, 1.0]), np.array([4.0, 2.0])]
        # Two exact centers (certified no-ops once converged), then from
        # step 6 a noisy copy of each (full partition-and-merge solves).
        rng = np.random.default_rng(17)
        inputs = centers + [
            center + rng.normal(scale=0.5, size=np.shape(center)) for center in centers
        ]
        source_scheme = _make_scheme(name)
        sources = [
            ClassifierNode(
                i + 1,
                inputs[i],
                source_scheme,
                k=2,
                quantization=quant,
                validate=True,
                merge_cache=MergeCache(),
            )
            for i in range(4)
        ]
        packed_scheme = _make_scheme(name)

        def object_pipeline(*args, **kwargs):
            raise AssertionError("packed node ran the object pipeline")

        packed_scheme.partition = object_pipeline
        packed_scheme.merge_set = object_pipeline
        packed, packed_sink = self._targets(packed_scheme, False, centers[0], quant)
        reference, reference_sink = self._targets(_make_scheme(name), True, centers[0], quant)
        assert all(node.native for node in packed)
        assert not any(node.native for node in reference)
        for step in range(12):
            active = sources[:2] if step < 6 else sources
            for index, source in enumerate(active):
                payload = source.make_message()
                if not payload:
                    continue
                if step % 2:
                    # Drop the digest stamps: the packed node hashes rows.
                    payload = [Collection(summary=c.summary, quanta=c.quanta) for c in payload]
                for target in packed + reference:
                    target.receive(list(payload))
                # receive_packed leaves the collection list unbuilt (a lazy
                # cache); the object pipeline would have rebuilt it.
                assert all(node._collections is None for node in packed)
                active[(index + 1) % len(active)].receive(payload)
            sent = [
                (packed_node.make_message(), object_node.make_message())
                for packed_node, object_node in zip(packed, reference)
            ]
            for from_packed, from_object in sent:
                assert [(c.quanta, _summary_bytes(c.summary)) for c in from_packed] == [
                    (c.quanta, _summary_bytes(c.summary)) for c in from_object
                ]
            if sent[0][1]:
                sources[step % len(sources)].receive(sent[0][1])
        for packed_node, object_node in zip(packed, reference):
            assert packed_node._packed is not None and object_node._packed is None
            assert _classification_bytes(packed_node) == _classification_bytes(object_node)
            assert packed_node.stats.as_dict() == object_node.stats.as_dict()
        assert _event_log(packed_sink) == _event_log(reference_sink)
        # Every receive route was exercised: fast path, certified no-op,
        # full solve (cache miss), and the twin's memo replays.
        first, twin = (node.stats for node in packed)
        assert first.fastpath_hits and first.cache_noop_hits and first.cache_misses
        assert twin.cache_memo_hits > 0


class TestIdentityBelowK:
    """The fast-path declaration must match the scheme's real partition."""

    @pytest.mark.parametrize("name", SCHEME_NAMES)
    @pytest.mark.parametrize("size", [1, 2, 4])
    def test_partition_is_identity_without_minimums(self, name, size):
        rng = np.random.default_rng(size)
        scheme = _make_scheme(name)
        assert scheme.identity_below_k
        collections = [
            Collection(
                summary=scheme.val_to_summary(_make_value(name, rng)),
                quanta=int(rng.integers(2, QUANT.unit + 1)),
            )
            for _ in range(size)
        ]
        groups = scheme.partition(collections, k=size, quantization=QUANT)
        assert groups == [[index] for index in range(size)]

    @pytest.mark.parametrize("name", SCHEME_NAMES)
    def test_fastpath_result_passes_validation(self, name):
        rng = np.random.default_rng(7)
        scheme = _make_scheme(name)
        node = ClassifierNode(
            0,
            _make_value(name, rng),
            scheme,
            k=4,
            quantization=QUANT,
            validate=True,  # validate_partition runs on the identity groups
        )
        incoming = [
            Collection(summary=scheme.val_to_summary(_make_value(name, rng)), quanta=8)
            for _ in range(2)
        ]
        node.receive(incoming)
        assert node.stats.fastpath_hits == 1
        assert node.stats.partition_calls == 0
        # The pooled set is adopted unchanged, in index order.
        assert len(node.classification) == 3
        assert node.classification[1].summary is incoming[0].summary

    @pytest.mark.parametrize("name", SCHEME_NAMES)
    def test_minimum_weight_forces_real_partition(self, name):
        """With a lone one-quantum collection the identity partition could
        violate conformance rule 2, so the fast path must decline and the
        scheme's own partition must still return a valid grouping."""
        rng = np.random.default_rng(11)
        scheme = _make_scheme(name)
        node = ClassifierNode(
            0,
            _make_value(name, rng),
            scheme,
            k=4,
            quantization=QUANT,
            validate=True,
        )
        node.receive(
            [Collection(summary=scheme.val_to_summary(_make_value(name, rng)), quanta=1)]
        )
        assert node.stats.fastpath_hits == 0
        assert node.stats.partition_calls == 1

    @pytest.mark.parametrize("name", SCHEME_NAMES)
    def test_partition_with_minimums_stays_conformant(self, name):
        rng = np.random.default_rng(13)
        scheme = _make_scheme(name)
        collections = [
            Collection(
                summary=scheme.val_to_summary(_make_value(name, rng)),
                quanta=1 if index % 2 else QUANT.unit,
            )
            for index in range(4)
        ]
        groups = scheme.partition(collections, k=4, quantization=QUANT)
        validate_partition(groups, collections, 4, QUANT)


class TestPackedDefault:
    def test_unsupported_scheme_falls_back(self):
        class ObjectOnly(CentroidScheme):
            supports_packed = False

        node = ClassifierNode(0, np.zeros(2), ObjectOnly(), k=2, quantization=QUANT)
        assert not node.native
        assert node._packed is None
        node.receive([Collection(summary=np.ones(2), quanta=8)])
        assert len(node.classification) == 2
