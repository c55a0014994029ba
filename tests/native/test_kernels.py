"""Kernel-level byte-parity: batched kernels vs their unbatched anchors.

Every kernel in :mod:`repro.native.kernels` carries a byte-parity
contract with the sequential reference it replaced (the schemes'
``merge_set_packed``, :func:`repro.ml.gaussian.pool_moments`, the
incremental greedy partition, integer quanta splits).  These tests pin
the contract directly at the kernel boundary — randomized inputs,
``tobytes()`` equality, no tolerance — so a future "optimisation" that
perturbs accumulation order fails here before any network-level suite
notices drift.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.collection import Collection
from repro.core.packed import PackedState
from repro.core.weights import Quantization
from repro.ml.gaussian import pool_moments
from repro.native.kernels import (
    compact_labels,
    greedy_partition,
    maximin_seed_walk,
    pairwise_sq_matrix,
    pool_moments_groups,
    split_quanta,
    weighted_average_groups,
)
from repro.schemes.centroid import CentroidScheme
from repro.schemes.gm import GaussianMixtureScheme

QUANT = Quantization(16)


def _random_groups(rng: np.random.Generator, n: int) -> list[list[int]]:
    """A random partition of ``range(n)`` into non-empty groups."""
    order = rng.permutation(n).tolist()
    cuts = sorted(rng.choice(np.arange(1, n), size=min(3, n - 1), replace=False).tolist())
    groups, start = [], 0
    for cut in cuts + [n]:
        if cut > start:
            groups.append(order[start:cut])
        start = cut
    return groups


class TestSplitQuanta:
    def test_matches_quantization_split(self):
        rng = np.random.default_rng(0)
        quanta = rng.integers(1, 1 << 20, size=64, dtype=np.int64)
        kept, sent = split_quanta(quanta)
        for index, value in enumerate(quanta.tolist()):
            ref_kept, ref_sent = QUANT.split(value)
            assert kept[index] == ref_kept
            assert sent[index] == ref_sent
        assert np.array_equal(kept + sent, quanta)


class TestPairwiseSqMatrix:
    @pytest.mark.parametrize("d", [1, 2, 3, 9])
    def test_matches_per_row_reference(self, d):
        rng = np.random.default_rng(d)
        points = rng.normal(size=(13, d))
        matrix = pairwise_sq_matrix(points)
        for row in range(13):
            reference = np.sum((points - points[row]) ** 2, axis=1)
            assert matrix[row].tobytes() == reference.tobytes()


class TestMaximinSeedWalk:
    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(5)
        points = rng.normal(size=(11, 2))
        weights = rng.uniform(0.5, 4.0, size=11)
        matrix = pairwise_sq_matrix(points)
        for k in (1, 3, 11):
            chosen = maximin_seed_walk(weights, matrix, k)
            # Scalar reference: heaviest first, then greedy farthest point.
            ref = [int(np.argmax(weights))]
            closest = matrix[ref[0]]
            for _ in range(1, k):
                candidate = int(np.argmax(closest))
                if closest[candidate] <= 0.0:
                    break
                ref.append(candidate)
                closest = np.minimum(closest, matrix[candidate])
            assert chosen == ref

    def test_coincident_points_stop_early(self):
        points = np.zeros((4, 2))
        weights = np.array([1.0, 2.0, 3.0, 4.0])
        matrix = pairwise_sq_matrix(points)
        assert maximin_seed_walk(weights, matrix, 4) == [3]


class TestCompactLabels:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_searchsorted_unique(self, seed):
        rng = np.random.default_rng(seed)
        assignment = rng.integers(0, 9, size=40)
        compacted, occupied = compact_labels(assignment)
        reference = np.searchsorted(np.unique(assignment), assignment)
        assert compacted.tobytes() == reference.tobytes()
        assert occupied == len(np.unique(assignment))


class TestWeightedAverageGroups:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_centroid_merge_set_packed(self, seed):
        """The batched average must replay the scheme's sequential one."""
        rng = np.random.default_rng(seed)
        n = 12
        rows = rng.normal(size=(n, 3))
        quanta = rng.integers(1, 1 << 12, size=n, dtype=np.int64)
        groups = _random_groups(rng, n)
        scheme = CentroidScheme()
        packed = PackedState(quanta=quanta, columns={"position": rows})
        batched = weighted_average_groups(rows, quanta, groups)
        for gi, group in enumerate(groups):
            reference = scheme.merge_set_packed(packed, group)
            assert batched[gi].tobytes() == reference.tobytes()

    def test_identical_rows_short_circuit_bytes(self):
        """Byte-identical groups adopt the row verbatim (no float dust)."""
        row = np.array([0.1, 0.2, 0.30000000000000004])
        rows = np.stack([row, row, row + 1.0])
        quanta = np.array([3, 5, 7], dtype=np.int64)
        out = weighted_average_groups(rows, quanta, [[0, 1], [2]])
        assert out[0].tobytes() == row.tobytes()
        assert out[1].tobytes() == (row + 1.0).tobytes()


class TestPoolMomentsGroups:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_pool_moments_per_group(self, seed):
        rng = np.random.default_rng(seed)
        n = 14
        means = rng.normal(size=(n, 2)) * 4
        covs = np.stack([np.eye(2) * s for s in rng.uniform(0.2, 2.0, size=n)])
        quanta = rng.integers(1, 1 << 12, size=n, dtype=np.int64)
        groups = _random_groups(rng, n)
        b_means, b_covs = pool_moments_groups(quanta, means, covs, groups)
        for gi, group in enumerate(groups):
            idx = np.asarray(group, dtype=np.intp)
            ref_mean, ref_cov = pool_moments(
                quanta[idx].astype(float), means[idx], covs[idx]
            )
            assert b_means[gi].tobytes() == ref_mean.tobytes()
            assert b_covs[gi].tobytes() == ref_cov.tobytes()

    def test_identical_components_short_circuit(self):
        mean = np.array([1.5, -2.5])
        cov = np.array([[2.0, 0.5], [0.5, 1.0]])
        means = np.stack([mean, mean])
        covs = np.stack([cov, cov])
        quanta = np.array([9, 11], dtype=np.int64)
        b_means, b_covs = pool_moments_groups(quanta, means, covs, [[0, 1]])
        ref_mean, ref_cov = pool_moments(quanta.astype(float), means, covs)
        assert b_means[0].tobytes() == ref_mean.tobytes()
        assert b_covs[0].tobytes() == ref_cov.tobytes()

    def test_mixed_group_sizes_route_through_buckets(self):
        rng = np.random.default_rng(99)
        n = 9
        means = rng.normal(size=(n, 2))
        covs = np.stack([np.eye(2)] * n)
        quanta = rng.integers(1, 100, size=n, dtype=np.int64)
        groups = [[0], [1, 2], [3, 4], [5, 6, 7, 8]]  # three size buckets
        b_means, b_covs = pool_moments_groups(quanta, means, covs, groups)
        assert b_means.shape == (4, 2)
        for gi, group in enumerate(groups):
            idx = np.asarray(group, dtype=np.intp)
            ref_mean, ref_cov = pool_moments(
                quanta[idx].astype(float), means[idx], covs[idx]
            )
            assert b_means[gi].tobytes() == ref_mean.tobytes()
            assert b_covs[gi].tobytes() == ref_cov.tobytes()


def _moment_problem(rng: np.random.Generator, d: int, sizes, identical):
    """One problem's rows and a partition of them into groups of ``sizes``.

    Groups flagged in ``identical`` get byte-equal members, which takes
    the kernel's identical-components short-circuit.
    """
    n = sum(sizes)
    means = rng.normal(size=(n, d)) * 3
    factors = rng.normal(size=(n, d, d))
    covs = factors @ factors.transpose(0, 2, 1) + 0.1 * np.eye(d)
    quanta = rng.integers(2, 1 << 40, size=n, dtype=np.int64)
    order = rng.permutation(n).tolist()
    groups, start = [], 0
    for size, same in zip(sizes, identical):
        group = order[start : start + size]
        start += size
        if same:
            means[group] = means[group[0]]
            covs[group] = covs[group[0]]
        groups.append(group)
    return quanta, means, covs, groups


class TestPoolMomentsGroupsBatching:
    """A problem's groups pool to the same bytes inside a bigger batch.

    The arena merges every problem of a round in one call, so a group's
    merged row must not depend on which other problems share the call.
    Sizes straddle numpy's pairwise-summation block (8 lanes).
    """

    @settings(max_examples=60, deadline=None)
    @given(
        d=st.sampled_from([1, 2]),
        problems=st.lists(
            st.lists(st.tuples(st.integers(1, 12), st.booleans()), min_size=1, max_size=4),
            min_size=2,
            max_size=5,
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_concatenated_batch_matches_each_problem_alone(self, d, problems, seed):
        rng = np.random.default_rng(seed)
        built = [
            _moment_problem(rng, d, [size for size, _ in spec], [same for _, same in spec])
            for spec in problems
        ]
        offsets = np.cumsum([0] + [len(quanta) for quanta, _, _, _ in built])
        batch_groups = [
            [int(offset) + member for member in group]
            for offset, (_, _, _, groups) in zip(offsets, built)
            for group in groups
        ]
        batch_means, batch_covs = pool_moments_groups(
            np.concatenate([quanta for quanta, _, _, _ in built]),
            np.concatenate([means for _, means, _, _ in built]),
            np.concatenate([covs for _, _, covs, _ in built]),
            batch_groups,
        )
        row = 0
        for quanta, means, covs, groups in built:
            alone_means, alone_covs = pool_moments_groups(quanta, means, covs, groups)
            stop = row + len(groups)
            assert batch_means[row:stop].tobytes() == alone_means.tobytes()
            assert batch_covs[row:stop].tobytes() == alone_covs.tobytes()
            row = stop

class TestGreedyPartition:
    def _collections(self, rng, n, scheme, minimums=0):
        out = []
        for index in range(n):
            quanta = 1 if index < minimums else int(rng.integers(2, 1 << 8))
            out.append(
                Collection(
                    summary=np.asarray(rng.normal(size=2), dtype=float),
                    quanta=quanta,
                )
            )
        return out

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("minimums", [0, 2])
    def test_object_and_packed_paths_agree(self, seed, minimums):
        """The kernel behind partition_packed must reproduce the object
        path's groups exactly — same merge sequence, same tie-breaks."""
        rng = np.random.default_rng(seed)
        scheme = CentroidScheme()
        collections = self._collections(rng, 10, scheme, minimums=minimums)
        object_groups = scheme.partition(collections, 3, QUANT)
        packed = PackedState(
            quanta=np.array([c.quanta for c in collections], dtype=np.int64),
            columns={"position": np.stack([c.summary for c in collections])},
        )
        packed_groups = scheme.partition_packed(packed, 3, QUANT)
        assert packed_groups == object_groups

    def test_respects_k_bound_and_partitions_indices(self):
        rng = np.random.default_rng(21)
        positions = rng.normal(size=(12, 2))
        weights = rng.uniform(1.0, 5.0, size=12)
        heavy = np.ones(12, dtype=bool)
        groups = greedy_partition(positions, weights, heavy, 4)
        assert len(groups) <= 4
        flat = sorted(index for group in groups for index in group)
        assert flat == list(range(12))

    def test_minimum_weight_singletons_are_merged(self):
        rng = np.random.default_rng(22)
        positions = rng.normal(size=(6, 2)) * 10
        weights = np.array([1.0, 5.0, 5.0, 5.0, 5.0, 5.0])
        heavy = np.array([False, True, True, True, True, True])
        groups = greedy_partition(positions, weights, heavy, 6)
        for group in groups:
            if 0 in group:
                assert len(group) >= 2  # rule 2: the minimum never stays alone

    def test_zero_collections_rejected(self):
        with pytest.raises(ValueError):
            greedy_partition(np.empty((0, 2)), np.empty(0), np.empty(0, dtype=bool), 3)


class TestGmPartitionParity:
    """GM: object vs packed partitions share one array core; pin it."""

    @pytest.mark.parametrize("seed", range(3))
    def test_object_and_packed_paths_agree(self, seed):
        rng = np.random.default_rng(seed)
        n = 9
        collections = [
            Collection(
                summary=GaussianMixtureScheme(seed=0).val_to_summary(
                    rng.normal(size=2) * 5
                ),
                quanta=int(rng.integers(2, 1 << 10)),
            )
            for _ in range(n)
        ]
        object_scheme = GaussianMixtureScheme(seed=7)
        packed_scheme = GaussianMixtureScheme(seed=7)
        object_groups = object_scheme.partition(collections, 3, QUANT)
        packed = PackedState(
            quanta=np.array([c.quanta for c in collections], dtype=np.int64),
            columns=packed_scheme.pack_summaries([c.summary for c in collections]),
        )
        packed_groups = packed_scheme.partition_packed(packed, 3, QUANT)
        assert packed_groups == object_groups
