"""The arena engine: one gossip round as batched array operations.

A :class:`~repro.network.kernel.SimulationKernel` round is a Python loop:
each live node draws a peer, splits its collections into a message, the
transport queues it, and every receiver runs the node-level receive
pipeline.  :class:`ArenaEngine` executes the *same* round over a
:class:`~repro.mega.arena.NetworkArena`:

1. **Pairing** — one vectorised draw via
   :meth:`~repro.network.simulator.NeighborSelector.choose_batch`
   (stream-equivalent to the kernel's per-node ``choose`` calls; scalar
   fallback otherwise).
2. **Split** — ``sent = quanta // 2`` over the whole ``(n, k)`` matrix;
   the payload rows, in ``np.nonzero`` row-major order, are exactly the
   concatenation of every node's ``make_message`` payload.
3. **Routing** — a stable argsort by destination reproduces the
   in-memory transport's delivery order (destinations ascending, and
   within a destination payloads in ascending sender order).
4. **Receive** — :class:`ReceiveSolver` runs the node receive pipeline
   per *distinct problem*, not per receiver: a receive is keyed by its
   local and incoming ``(summary id, quanta)`` bytes, so the
   post-convergence tail — where nearly every receiver poses one of a
   handful of problems — collapses into dictionary hits across the
   population.  Distinct problems run the same fast path / certified
   no-op / partition+merge pipeline as
   :meth:`repro.core.node.ClassifierNode.receive`, against the same
   :class:`~repro.core.fingerprint.MergeCache` certificate machinery.

Byte-parity with the per-node kernel (same seeds, same schemes, same
classifications down to collection order) is the contract; the scalar
draws, delivery order, tie-breaks and float accumulation orders are all
mirrored, and ``tests/mega/`` pins them.

Only the paper's default ``push`` gossip variant is supported: pull and
push-pull interleave per-node splits with deliveries inside one round,
which defeats whole-network batching.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import networkx as nx
import numpy as np

from repro.core.fingerprint import MergeCache, merge_cache_default
from repro.core.packed import PackedState
from repro.core.weights import Quantization
from repro.mega.arena import NetworkArena
from repro.network.simulator import NeighborSelector, RandomSelector
from repro.network.topology import TOPOLOGY_BUILDERS, neighbors_map, validate_topology
from repro.obs.profiling import current_registry

__all__ = ["ArenaEngine", "ArenaStats", "GossipPairing", "ReceiveSolver"]


class GossipPairing:
    """The round pairing draw, separable from any one arena.

    Owns the seeded generator and the topology's neighbour structure and
    yields one peers vector per round.  Shard workers each hold a full
    replica (same seed, same selector) and draw identical vectors — that
    replication *is* the deterministic cross-shard exchange: no pairing
    coordination crosses process boundaries, only payload rows do.
    """

    def __init__(
        self,
        n: int,
        topology: Union[str, nx.Graph],
        selector: NeighborSelector,
        seed: int,
    ) -> None:
        if n < 2:
            raise ValueError("arena gossip needs at least 2 nodes")
        self.n = n
        self.rng = np.random.default_rng(seed)
        self.selector = selector
        self._complete = False
        self._neighbor_matrix: Optional[np.ndarray] = None
        self._degrees: Optional[np.ndarray] = None
        self._uniform_degree: Optional[int] = None
        if isinstance(topology, str):
            if topology == "complete":
                # The kernel's neighbour list for node i on the complete
                # graph is sorted(range(n) - {i}), so a drawn index maps
                # to peer = index + (index >= i) — no adjacency storage.
                self._complete = True
                self._uniform_degree = n - 1
                return
            builder = TOPOLOGY_BUILDERS.get(topology)
            if builder is None:
                raise ValueError(
                    f"unknown topology {topology!r}; "
                    f"expected 'complete', one of {sorted(TOPOLOGY_BUILDERS)}, or a graph"
                )
            graph = builder(n)
        else:
            graph = validate_topology(topology)
            if graph.number_of_nodes() != n:
                raise ValueError(
                    f"topology has {graph.number_of_nodes()} nodes, arena has {n}"
                )
        neighbors = neighbors_map(graph)
        degrees = np.asarray([len(neighbors[i]) for i in range(n)], dtype=np.int64)
        width = int(degrees.max())
        matrix = np.full((n, width), -1, dtype=np.int64)
        for node in range(n):
            matrix[node, : degrees[node]] = neighbors[node]
        self._neighbor_matrix = matrix
        self._degrees = degrees
        if int(degrees.min()) == width:
            self._uniform_degree = width

    def _neighbors_of(self, node: int) -> List[int]:
        if self._complete:
            return list(range(node)) + list(range(node + 1, self.n))
        assert self._neighbor_matrix is not None and self._degrees is not None
        degree = int(self._degrees[node])
        return [int(peer) for peer in self._neighbor_matrix[node, :degree]]

    def draw(self) -> np.ndarray:
        """The next round's peers vector (``peers[i]`` = node ``i``'s target)."""
        n = self.n
        if self._uniform_degree is not None:
            index = self.selector.choose_batch(n, self._uniform_degree, self.rng)
            if index is not None:
                index = np.asarray(index, dtype=np.int64)
                if self._complete:
                    return index + (index >= np.arange(n, dtype=np.int64))
                assert self._neighbor_matrix is not None
                return self._neighbor_matrix[np.arange(n), index]
        # Scalar fallback: the kernel's per-node loop, verbatim — same
        # selector calls against the same stream, in ascending node order.
        peers = np.empty(n, dtype=np.int64)
        choose = self.selector.choose
        rng = self.rng
        for node in range(n):
            peers[node] = choose(node, self._neighbors_of(node), rng)
        return peers


@dataclass
class ArenaStats:
    """Cumulative instrumentation for one arena run (observational only)."""

    rounds: int = 0
    messages: int = 0
    receivers: int = 0
    fastpath_hits: int = 0
    memo_round_hits: int = 0
    memo_lru_hits: int = 0
    noop_hits: int = 0
    noop_sweep_hits: int = 0
    full_solves: int = 0
    merges: int = 0

    def as_dict(self) -> Dict[str, int]:
        return asdict(self)


class _Outcome:
    """One solved receive: the receiver's next row block, ready to scatter.

    All arrays are owned copies (never views into the arena), so one
    outcome can be applied to every receiver posing the same problem and
    survive in the memo across rounds while arena rows churn.  A full
    solve's outcome is created empty when its problem is first seen and
    filled in by :meth:`ReceiveSolver._solve_round` before the scatter.
    """

    __slots__ = ("ids", "quanta", "columns", "merges")

    def __init__(
        self, ids: Any = None, quanta: Any = None, columns: Any = None, merges: int = 0
    ) -> None:
        self.ids = ids
        self.quanta = quanta
        self.columns = columns
        self.merges = merges


def _ragged(lengths: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Segment and within-segment index of each element of a ragged layout.

    For segments of ``lengths`` laid end to end, element ``e`` belongs to
    segment ``seg[e]`` at offset ``within[e]`` inside it.
    """
    seg = np.repeat(np.arange(len(lengths)), lengths)
    within = np.arange(len(seg)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    return seg, within


_MISSING = object()


class _NoopPlan:
    """Everything about a certified no-op that depends only on the ids.

    A receiver's local id block fixes its index maps, content digests,
    certificate, and — per heaviest location — the output permutation and
    the gathered id/column arrays.  Caching those per distinct
    ``local_ids`` byte pattern leaves only the quanta-dependent scalar
    work (minimum checks, totals, the margin test) on the per-receiver
    path.  Safe to share the gathered arrays across receivers because an
    interned id bijects with its packed row bytes and outcome arrays are
    never mutated in place.
    """

    __slots__ = (
        "local_index",
        "certificate",
        "cert_of_pos",
        "pos_of_cert",
        "ranks",
        "style_em",
        "orders",
        "tight_thresholds",
    )

    def __init__(
        self,
        local_index: Dict[int, int],
        certificate: Any,
        cert_of_pos: List[int],
        pos_of_cert: List[int],
        style_em: bool,
    ) -> None:
        self.local_index = local_index
        self.certificate = certificate
        self.cert_of_pos = cert_of_pos
        self.pos_of_cert = pos_of_cert
        self.ranks = tuple(pos_of_cert)
        self.style_em = style_em
        # heaviest local position -> None (no certified order) or
        # [order, out_ids, out_columns]; greedy-style plans use key -1.
        self.orders: Dict[int, Optional[List[Any]]] = {}
        self.tight_thresholds: Optional[np.ndarray] = None


class ReceiveSolver:
    """The node receive pipeline, deduplicated over a whole payload slab.

    Shared by :class:`ArenaEngine` and the shard workers: both hand it
    per-destination payload slabs (ids/quanta/columns sorted by receiver)
    and it updates the arena in place.  A round runs in phases:

    1. **Sweep** — certified no-ops of receivers sharing a local id
       block with many others, as array operations (:meth:`_noop_sweep`).
    2. **Distinct problems** — every other receive is keyed by its exact
       ``(local state, incoming)`` bytes; a round memo and a bounded LRU
       memo replay repeated keys (byte-identical: the pipeline is a pure
       function of the key).  A new key tries the identity fast path,
       then the certified no-op, whose membership-first gate builds a
       certificate only for a receive that could be one.
    3. **Full solves** (:meth:`_solve_round`) — the remaining problems
       are partitioned, all their multi-member groups merged in one
       ``merge_groups_columns`` call and interned in one ``intern_rows``.
    4. **Scatter** — each receiver's outcome is written to its arena
       row; receivers posing the same problem share one outcome.
    """

    def __init__(
        self,
        arena: NetworkArena,
        merge_cache: Optional[MergeCache] = None,
        memo_size: int = 65536,
        stats: Optional[ArenaStats] = None,
    ) -> None:
        self.arena = arena
        self.scheme = arena.scheme
        self.k = arena.k
        self.quantization = arena.quantization
        self.merge_cache = merge_cache if arena.scheme.supports_fingerprints else None
        self.memo_size = int(memo_size)
        self.stats = stats if stats is not None else ArenaStats()
        self._memo: "OrderedDict[Any, _Outcome]" = OrderedDict()
        self._noop_plans: Dict[bytes, Optional[_NoopPlan]] = {}

    # ------------------------------------------------------------------
    # Batch entry point
    # ------------------------------------------------------------------
    def receive_slab(
        self,
        dests: np.ndarray,
        bounds: np.ndarray,
        ids: np.ndarray,
        quanta: np.ndarray,
        columns: Dict[str, np.ndarray],
    ) -> None:
        """Apply one round's receives.

        ``dests`` lists the receiving (arena-local) node indices,
        ascending; payload rows ``bounds[p]:bounds[p+1]`` of
        ``ids`` / ``quanta`` / ``columns`` belong to ``dests[p]``, in
        ascending-sender order — the in-memory transport's batch order.
        """
        arena = self.arena
        stats = self.stats
        a_counts = arena.counts
        a_ids = arena.ids
        a_quanta = arena.quanta
        a_columns = arena.columns
        memo = self._memo
        handled: Optional[np.ndarray] = None
        if self.merge_cache is not None and len(dests) >= 32:
            handled = self._noop_sweep(dests, bounds, ids, quanta)
        round_memo: Dict[Any, _Outcome] = {}
        scatter: List[Tuple[int, _Outcome]] = []
        solves: List[Tuple[_Outcome, int]] = []  # (outcome to fill, position)
        for position in range(len(dests)):
            if handled is not None and handled[position]:
                continue
            receiver = int(dests[position])
            start = int(bounds[position])
            stop = int(bounds[position + 1])
            count = int(a_counts[receiver])
            local_ids = a_ids[receiver, :count]
            local_quanta = a_quanta[receiver, :count]
            key = (
                count,
                local_ids.tobytes(),
                local_quanta.tobytes(),
                ids[start:stop].tobytes(),
                quanta[start:stop].tobytes(),
            )
            outcome = round_memo.get(key)
            if outcome is not None:
                stats.memo_round_hits += 1
            else:
                outcome = memo.get(key)
                if outcome is not None:
                    memo.move_to_end(key)
                    stats.memo_lru_hits += 1
                else:
                    outcome = self._shortcut(
                        receiver,
                        count,
                        local_ids,
                        local_quanta,
                        ids[start:stop],
                        quanta[start:stop],
                        {name: rows[start:stop] for name, rows in columns.items()},
                    )
                    if outcome is None:
                        outcome = _Outcome()
                        solves.append((outcome, position))
                        if self.memo_size > 0:
                            if len(memo) >= self.memo_size:
                                memo.popitem(last=False)
                            memo[key] = outcome
                round_memo[key] = outcome
            stats.receivers += 1
            scatter.append((receiver, outcome))
        if solves:
            self._solve_round(solves, dests, bounds, ids, quanta, columns)
        for receiver, outcome in scatter:
            stats.merges += outcome.merges
            width = len(outcome.ids)
            a_counts[receiver] = width
            a_ids[receiver, :width] = outcome.ids
            a_quanta[receiver, :width] = outcome.quanta
            a_quanta[receiver, width:] = 0
            for name, column in a_columns.items():
                column[receiver, :width] = outcome.columns[name]

    def _solve_round(
        self,
        solves: List[Tuple[_Outcome, int]],
        dests: np.ndarray,
        bounds: np.ndarray,
        ids: np.ndarray,
        quanta: np.ndarray,
        columns: Dict[str, np.ndarray],
    ) -> None:
        """Full-solve the round's new problems and fill their outcomes.

        Every problem's pooled rows (its receiver's local rows, then its
        payload rows) are gathered into one round buffer, and each
        problem is partitioned on its slice.  All multi-member groups of
        the round then go through one ``merge_groups_columns`` call over
        that buffer: the merge kernels bucket groups by size and reduce
        each group along its own lanes, so a group's merged row does not
        depend on what else shares the batch.  The merged rows are
        interned in one ``intern_rows`` call, in (problem, group) order —
        the ids the per-problem sequence would assign.
        """
        arena = self.arena
        scheme = self.scheme
        positions = np.fromiter((position for _, position in solves), np.intp, len(solves))
        receivers = dests[positions]
        counts = arena.counts[receivers]
        starts = bounds[positions]
        widths = bounds[positions + 1] - starts
        sizes = counts + widths
        offsets = np.cumsum(sizes) - sizes
        local_seg, slots = _ragged(counts)
        incoming_seg, incoming_within = _ragged(widths)
        local_at = offsets[local_seg] + slots
        incoming_at = offsets[incoming_seg] + counts[incoming_seg] + incoming_within
        local_from = receivers[local_seg]
        incoming_from = starts[incoming_seg] + incoming_within
        total = int(sizes.sum())

        def pool(arena_rows: np.ndarray, payload_rows: np.ndarray) -> np.ndarray:
            out = np.empty((total,) + payload_rows.shape[1:], dtype=payload_rows.dtype)
            out[local_at] = arena_rows[local_from, slots]
            out[incoming_at] = payload_rows[incoming_from]
            return out

        pooled_ids = pool(arena.ids, ids)
        pooled = PackedState(
            quanta=pool(arena.quanta, quanta),
            columns={name: pool(arena.columns[name], rows) for name, rows in columns.items()},
        )
        k = self.k
        quantization = self.quantization
        layouts: List[Tuple[List[int], List[int]]] = []
        merge_groups: List[List[int]] = []
        for (outcome, _), lo, size in zip(solves, offsets.tolist(), sizes.tolist()):
            hi = lo + size
            problem = PackedState(
                quanta=pooled.quanta[lo:hi],
                columns={name: column[lo:hi] for name, column in pooled.columns.items()},
            )
            groups = scheme.partition_packed(problem, k, quantization)
            # Singleton groups keep their pooled row; the rest are merged.
            multi = [index for index, group in enumerate(groups) if len(group) > 1]
            merge_groups.extend([lo + member for member in groups[index]] for index in multi)
            outcome.merges = len(multi)
            layouts.append(([lo + group[0] for group in groups], multi))
        self.stats.full_solves += len(solves)
        if merge_groups:
            merged = scheme.merge_groups_columns(pooled, merge_groups)
            members = np.fromiter(
                (member for group in merge_groups for member in group), dtype=np.intp
            )
            group_sizes = np.fromiter(
                (len(group) for group in merge_groups), np.intp, len(merge_groups)
            )
            group_quanta = np.add.reduceat(
                pooled.quanta[members], np.cumsum(group_sizes) - group_sizes
            )
            new_ids = arena.interner.intern_rows(merged, len(merge_groups))
        row = 0
        for (outcome, _), (first, multi) in zip(solves, layouts):
            outcome.ids = pooled_ids[first]
            outcome.quanta = pooled.quanta[first]
            outcome.columns = {name: column[first] for name, column in pooled.columns.items()}
            if multi:
                stop = row + len(multi)
                outcome.ids[multi] = new_ids[row:stop]
                outcome.quanta[multi] = group_quanta[row:stop]
                for name, column in outcome.columns.items():
                    column[multi] = merged[name][row:stop]
                row = stop

    # ------------------------------------------------------------------
    # Batched certified no-ops
    # ------------------------------------------------------------------
    def _noop_sweep(
        self,
        dests: np.ndarray,
        bounds: np.ndarray,
        ids: np.ndarray,
        quanta: np.ndarray,
    ) -> Optional[np.ndarray]:
        """Apply certified no-op receives in bulk; returns a handled mask.

        Post-convergence almost every receiver holds the same ``k``
        interned summaries and every incoming id matches one of them, so
        the scalar no-op check repeats identical id-dependent work per
        receiver.  This pass groups receivers by their local id block and
        runs the quanta-dependent checks (minimum weights, membership,
        heaviest location, margin test) as array operations, scattering
        the shared outcome arrays back in one broadcast per order.

        Only receivers that *pass* every check are marked handled; any
        rejection simply leaves the receiver to the scalar path, whose
        ``math.log``-based margin decision stays authoritative.  The
        vector margin test is tightened by a relative epsilon so a
        borderline acceptance can never disagree with the scalar check
        beyond log rounding — and even then a certified no-op is byte
        identical to the full pipeline by construction, so which path
        computes the state never changes the state.
        """
        if type(self.quantization) is not Quantization:
            return None  # exotic lattice: is_minimum semantics unknown
        arena = self.arena
        k = self.k
        n_pos = len(dests)
        handled = np.zeros(n_pos, dtype=bool)
        counts_d = arena.counts[dests]
        candidate = counts_d == k
        if not candidate.any():
            return handled
        widths = np.diff(bounds)
        pos_idx = np.flatnonzero(candidate)
        receivers = dests[pos_idx]
        local_ids = np.ascontiguousarray(arena.ids[receivers, :k])
        local_quanta = arena.quanta[receivers, :k]
        blocks = local_ids.view([("v", f"V{k * 8}")]).ravel()
        unique_blocks, inverse = np.unique(blocks, return_inverse=True)
        a_counts = arena.counts
        a_ids = arena.ids
        a_quanta = arena.quanta
        a_columns = arena.columns
        stats = self.stats
        for block_index in range(len(unique_blocks)):
            members_mask = inverse == block_index
            if int(members_mask.sum()) < 16:
                continue  # scalar path amortises better on small groups
            sub = np.flatnonzero(members_mask)
            block_ids = local_ids[sub[0]]
            sub_pos = pos_idx[sub]
            starts = bounds[sub_pos]
            w = widths[sub_pos]
            r_count = len(sub)
            # Ragged gather: payload row ranges per receiver, flattened.
            seg, within = _ragged(w)
            rows = starts[seg] + within
            in_ids = ids[rows]
            in_quanta = quanta[rows]
            # Map incoming ids to local positions via the sorted block.
            sort_order = np.argsort(block_ids, kind="stable")
            sorted_ids = block_ids[sort_order]
            found = np.searchsorted(sorted_ids, in_ids)
            found = np.minimum(found, k - 1)
            row_ok = (sorted_ids[found] == in_ids) & (in_quanta != 1)
            in_pos = sort_order[found]
            sub_quanta = local_quanta[sub]
            ok = (sub_quanta != 1).all(axis=1)
            np.logical_and.at(ok, seg, row_ok)
            if not ok.any():
                continue
            # Membership and minimums pass somewhere: only now is the
            # block's certificate worth building.
            plan = self._noop_plan_for(k, block_ids)
            if plan is None or not plan.style_em:
                continue
            tight = plan.tight_thresholds
            if tight is None:
                thresholds = plan.certificate.margin_threshold_matrix()
                if thresholds is None:
                    continue
                tight = thresholds.copy()
                finite = np.isfinite(tight)
                tight[finite] -= 1e-12 * (1.0 + np.abs(tight[finite]))
                plan.tight_thresholds = tight
            # Pooled totals and per-position incoming counts.
            totals = sub_quanta.copy()
            hits = np.zeros((r_count, k), dtype=np.int64)
            np.add.at(totals, (seg, in_pos), in_quanta)
            np.add.at(hits, (seg, in_pos), 1)
            # Heaviest location: locals in position order, then incoming
            # rows in delivery order, strict > (first-max ties).
            best_pos = sub_quanta.argmax(axis=1)
            best_q = np.take_along_axis(sub_quanta, best_pos[:, None], axis=1)[:, 0]
            for j in range(int(w.max())):
                has = np.flatnonzero(w > j)
                if not len(has):
                    break
                row_j = starts[has] + j
                iq = quanta[row_j]
                ip_found = np.minimum(np.searchsorted(sorted_ids, ids[row_j]), k - 1)
                beat = np.flatnonzero(iq > best_q[has])
                target = has[beat]
                best_q[target] = iq[beat]
                best_pos[target] = sort_order[ip_found[beat]]
            # Margin test, tightened so only clear passes are accepted.
            log_totals = np.log(totals)
            cert_totals = np.empty_like(log_totals)
            cert_totals[:, plan.cert_of_pos] = log_totals
            diffs = cert_totals[:, None, :] - cert_totals[:, :, None]
            ok &= (diffs < tight[None]).all(axis=(1, 2))
            if not ok.any():
                continue
            for b in np.unique(best_pos[ok]).tolist():
                accepted = np.flatnonzero(ok & (best_pos == b))
                entry = plan.orders.get(b, _MISSING)
                if entry is _MISSING:
                    seed_order = plan.certificate.seed_order(
                        plan.cert_of_pos[b], plan.ranks
                    )
                    if seed_order is None:
                        plan.orders[b] = None
                        continue  # scalar path will reject identically
                    order = [plan.pos_of_cert[index] for index in seed_order]
                    take = np.asarray(order, dtype=np.intp)
                    first = int(receivers[sub[accepted[0]]])
                    entry = [
                        order,
                        block_ids[take],
                        {
                            name: column[first, :k][take]
                            for name, column in a_columns.items()
                        },
                    ]
                    plan.orders[b] = entry
                elif entry is None:
                    continue
                order, out_ids, out_columns = entry
                out = receivers[sub[accepted]]
                a_counts[out] = k
                a_ids[out, :k] = out_ids[None]
                a_quanta[out, :k] = totals[accepted][:, order]
                a_quanta[out, k:] = 0
                for name, column in a_columns.items():
                    column[out, :k] = out_columns[name][None]
                handled[sub_pos[accepted]] = True
                hit_count = len(accepted)
                stats.receivers += hit_count
                stats.noop_hits += hit_count
                stats.noop_sweep_hits += hit_count
                stats.merges += int((hits[accepted] > 0).sum())
        return handled

    # ------------------------------------------------------------------
    # One distinct receive problem
    # ------------------------------------------------------------------
    def _shortcut(
        self,
        receiver: int,
        count: int,
        local_ids: np.ndarray,
        local_quanta: np.ndarray,
        incoming_ids: np.ndarray,
        incoming_quanta: np.ndarray,
        incoming_columns: Dict[str, np.ndarray],
    ) -> Optional[_Outcome]:
        """The identity fast path or a certified no-op; None means full solve."""
        # Identity fast path: mirrors ClassifierNode._try_fastpath (the
        # pooled set always has >= 2 members on a receive).
        if count + len(incoming_ids) <= self.k and self.scheme.identity_below_k:
            pooled_quanta = np.concatenate([local_quanta, incoming_quanta])
            if not self.quantization.is_minimum(int(pooled_quanta.min())):
                self.stats.fastpath_hits += 1
                return _Outcome(
                    np.concatenate([local_ids, incoming_ids]),
                    pooled_quanta,
                    {
                        name: np.concatenate([column[receiver, :count], incoming_columns[name]])
                        for name, column in self.arena.columns.items()
                    },
                    0,
                )
        if self.merge_cache is not None:
            outcome = self._try_certified_noop(
                receiver, count, local_ids, local_quanta, incoming_ids, incoming_quanta
            )
            if outcome is not None:
                self.stats.noop_hits += 1
                return outcome
        return None

    def _noop_plan_for(
        self, count: int, local_ids: np.ndarray
    ) -> Optional[_NoopPlan]:
        """The cached :class:`_NoopPlan` for one local id block (or None)."""
        key = local_ids.tobytes()
        plans = self._noop_plans
        plan = plans.get(key, _MISSING)
        if plan is not _MISSING:
            return plan  # type: ignore[return-value]
        plan = self._build_noop_plan(count, local_ids)
        if len(plans) >= 65536:  # pre-convergence id churn guard
            plans.clear()
        plans[key] = plan
        return plan

    def _build_noop_plan(
        self, count: int, local_ids: np.ndarray
    ) -> Optional[_NoopPlan]:
        cache = self.merge_cache
        assert cache is not None
        scheme = self.scheme
        if count > self.k:
            return None
        id_list = local_ids.tolist()
        local_index = {summary_id: position for position, summary_id in enumerate(id_list)}
        if len(local_index) != count:
            return None
        style = scheme.identity_partition_style
        if style is None:
            return None
        if style == "greedy" and count != self.k:
            return None
        interner = self.arena.interner
        local_digests = [interner.digest(summary_id) for summary_id in id_list]
        digest_position = {digest: i for i, digest in enumerate(local_digests)}
        sorted_digests = tuple(sorted(local_digests))
        certificate = cache.certificate_for(
            scheme,
            sorted_digests,
            tuple(
                interner.summary(id_list[digest_position[digest]])
                for digest in sorted_digests
            ),
        )
        if not certificate.valid:
            return None
        cert_of_pos = [certificate.index_of[digest] for digest in local_digests]
        pos_of_cert = [digest_position[digest] for digest in certificate.locations]
        return _NoopPlan(
            local_index, certificate, cert_of_pos, pos_of_cert, style == "em"
        )

    def _try_certified_noop(
        self,
        receiver: int,
        count: int,
        local_ids: np.ndarray,
        local_quanta: np.ndarray,
        incoming_ids: np.ndarray,
        incoming_quanta: np.ndarray,
    ) -> Optional[_Outcome]:
        """Mirror of ClassifierNode._try_certified_noop_packed on interned ids.

        Within one interner an id bijects with a summary byte pattern and
        hence with its content digest, so "incoming digest matches a
        local collection" becomes an integer set lookup; the certificate
        itself (seed order, margins) is shared with the per-node world
        via the run's :class:`~repro.core.fingerprint.MergeCache`.  The
        id-dependent setup lives on a per-block :class:`_NoopPlan`.

        Checks run in the node's order: without a cached plan, membership,
        pooled size and minimum weights are tested on plain ints, and the
        plan (digests, summaries, certificate) is built only for a receive
        that passes them — on continuous data almost none does.
        """
        plan: Any = self._noop_plans.get(local_ids.tobytes(), _MISSING)
        if plan is None:
            return None
        incoming_list = incoming_ids.tolist()
        if count + len(incoming_list) <= self.k:
            return None
        if plan is _MISSING:
            local_index = {
                summary_id: position
                for position, summary_id in enumerate(local_ids.tolist())
            }
        else:
            local_index = plan.local_index
        is_minimum = self.quantization.is_minimum
        totals = local_quanta.tolist()
        best_quanta = -1
        best_position = 0
        for position, quanta in enumerate(totals):
            if is_minimum(quanta):
                return None
            if quanta > best_quanta:
                best_quanta = quanta
                best_position = position
        members = [1] * count
        for summary_id, incoming_q in zip(incoming_list, incoming_quanta.tolist()):
            position = local_index.get(summary_id)
            if position is None:
                return None
            if is_minimum(incoming_q):
                return None
            totals[position] += incoming_q
            members[position] += 1
            if incoming_q > best_quanta:
                best_quanta = incoming_q
                best_position = position
        if plan is _MISSING:
            plan = self._noop_plan_for(count, local_ids)
            if plan is None:
                return None
        if plan.style_em:
            certificate = plan.certificate
            cert_of_pos = plan.cert_of_pos
            log = math.log
            log_totals = [0.0] * count
            for position in range(count):
                log_totals[cert_of_pos[position]] = log(totals[position])
            if not certificate.margin_ok(log_totals):
                return None
            order_key = best_position
        else:
            order_key = -1
        entry = plan.orders.get(order_key, _MISSING)
        if entry is _MISSING:
            if plan.style_em:
                seed_order = plan.certificate.seed_order(
                    plan.cert_of_pos[best_position], plan.ranks
                )
                if seed_order is None:
                    plan.orders[order_key] = None
                    return None
                order = [plan.pos_of_cert[index] for index in seed_order]
            else:
                order = list(range(count))
            take = np.asarray(order, dtype=np.intp)
            entry = [
                order,
                local_ids[take],
                {name: column[receiver, take] for name, column in self.arena.columns.items()},
            ]
            plan.orders[order_key] = entry
        elif entry is None:
            return None
        order, out_ids, out_columns = entry  # type: ignore[misc]
        out_quanta = np.asarray(
            [totals[position] for position in order], dtype=np.int64
        )
        merges = sum(1 for position in order if members[position] > 1)
        return _Outcome(out_ids, out_quanta, out_columns, merges)


class ArenaEngine:
    """Single-process whole-network gossip over one arena.

    Parameters
    ----------
    values:
        One input value per node (any sequence the scheme's
        ``pack_values`` accepts).
    scheme, k, quantization:
        As for :class:`~repro.core.node.ClassifierNode`; the scheme must
        declare ``supports_packed``.
    seed:
        Seeds the pairing RNG — the same ``default_rng(seed)`` stream the
        per-node kernel consumes, which is what makes byte-parity (and
        the deterministic cross-shard exchange) possible.
    topology:
        ``"complete"`` (the default; never materialised as a graph, so
        million-node arenas stay O(n)), a name from
        :data:`repro.network.topology.TOPOLOGY_BUILDERS`, or an explicit
        ``networkx`` graph.
    selector:
        Pairing strategy; vectorised when it implements ``choose_batch``
        and the topology is degree-uniform, scalar fallback otherwise
        (O(n) Python calls per round — fine for parity runs, not for
        mega-scale).
    use_cache:
        Enables the certified no-op layer (and its shared
        :class:`~repro.core.fingerprint.MergeCache`); ``None`` defers to
        ``REPRO_MERGE_CACHE``.  The memo layers stay on regardless —
        problem dedup is the arena's core batching trick, and hits are
        byte-identical replays by key construction.
    """

    def __init__(
        self,
        values: Sequence[Any],
        scheme: Any,
        k: int,
        *,
        seed: int = 0,
        topology: Union[str, nx.Graph] = "complete",
        quantization: Optional[Quantization] = None,
        selector: Optional[NeighborSelector] = None,
        variant: str = "push",
        use_cache: Optional[bool] = None,
        memo_size: int = 65536,
    ) -> None:
        if variant != "push":
            raise ValueError(
                f"the arena engine implements the paper's push gossip only, got {variant!r}: "
                "pull/push-pull interleave splits with deliveries inside a round, "
                "which defeats whole-network batching — use the per-node kernel"
            )
        self.arena = NetworkArena.from_values(values, scheme, k, quantization)
        n = self.arena.n
        if n < 2:
            raise ValueError("arena gossip needs at least 2 nodes")
        self.selector = selector if selector is not None else RandomSelector()
        self.pairing = GossipPairing(n, topology, self.selector, seed)
        self.rng = self.pairing.rng
        if use_cache is None:
            use_cache = merge_cache_default()
        self.merge_cache: Optional[MergeCache] = (
            MergeCache() if (use_cache and scheme.supports_fingerprints) else None
        )
        self.stats = ArenaStats()
        self.solver = ReceiveSolver(
            self.arena,
            merge_cache=self.merge_cache,
            memo_size=memo_size,
            stats=self.stats,
        )
        self.round_index = 0
        self.quiescent_at: Optional[int] = None
        self._quiescent_streak = 0
        self._gauge_prev = (0, 0, 0)

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------
    def run_round(self) -> int:
        """Execute one synchronous round; returns the message count."""
        arena = self.arena
        peers = self.pairing.draw()
        quanta = arena.quanta
        sent = quanta // 2
        arena.quanta = quanta - sent
        sender, slot = np.nonzero(sent)
        messages = 0
        if len(sender):
            payload_quanta = sent[sender, slot]
            payload_ids = arena.ids[sender, slot]
            payload_dest = peers[sender]
            payload_columns = {
                name: column[sender, slot] for name, column in arena.columns.items()
            }
            messages = int(np.count_nonzero(np.diff(sender)) + 1)
            order = np.argsort(payload_dest, kind="stable")
            sorted_dest = payload_dest[order]
            dests, starts = np.unique(sorted_dest, return_index=True)
            bounds = np.append(starts, len(sorted_dest))
            self.solver.receive_slab(
                dests,
                bounds,
                payload_ids[order],
                payload_quanta[order],
                {name: rows[order] for name, rows in payload_columns.items()},
            )
        self.round_index += 1
        self.stats.rounds += 1
        self.stats.messages += messages
        self._publish_gauges(messages)
        return messages

    def run(
        self,
        rounds: int,
        stop_on_quiescence: bool = False,
        quiescence_patience: int = 3,
    ) -> int:
        """Run up to ``rounds`` rounds; returns the number executed.

        Quiescence mirrors the kernel's probe: stop once every node has
        held the same summary-id multiset for ``quiescence_patience``
        consecutive rounds (between synchronous rounds nothing is in
        flight, so the id test is the whole condition).
        """
        executed = 0
        for _ in range(rounds):
            self.run_round()
            executed += 1
            if stop_on_quiescence:
                if self._probe_quiescence():
                    self._quiescent_streak += 1
                    if self._quiescent_streak >= quiescence_patience:
                        if self.quiescent_at is None:
                            self.quiescent_at = executed
                        break
                else:
                    self._quiescent_streak = 0
        return executed

    @property
    def quiescent(self) -> bool:
        return self.quiescent_at is not None

    def _probe_quiescence(self) -> bool:
        arena = self.arena
        counts = arena.counts
        first = int(counts[0])
        if not bool(np.all(counts == first)):
            return False
        block = np.sort(arena.ids[:, :first], axis=1)
        return bool(np.all(block == block[0]))

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------
    def classifications(self) -> List[List[Any]]:
        return self.arena.classifications()

    def state_digests(self, node: int) -> Tuple[Tuple[bytes, int], ...]:
        return self.arena.state_digests(node)

    def _publish_gauges(self, messages: int) -> None:
        stats = self.stats
        hits = stats.memo_round_hits + stats.memo_lru_hits + stats.noop_hits
        previous_receivers, previous_hits, previous_merges = self._gauge_prev
        delta_receivers = stats.receivers - previous_receivers
        delta_hits = hits - previous_hits
        delta_merges = stats.merges - previous_merges
        self._gauge_prev = (stats.receivers, hits, stats.merges)
        registry = current_registry()
        if registry is None:
            return
        registry.inc("mega.rounds")
        registry.inc("mega.messages", messages)
        registry.set_gauge("mega.receivers_round", delta_receivers)
        registry.set_gauge("mega.nodes_merged_round", delta_merges)
        registry.set_gauge(
            "mega.cache_hit_rate",
            delta_hits / delta_receivers if delta_receivers else 1.0,
        )
