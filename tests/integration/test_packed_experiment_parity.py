"""Experiment-level packed/object parity: identical figure outputs.

The acceptance bar for the packed hot path is not unit-level equality but
*experiment-level* byte parity: a figure run on default (packed-path)
nodes must produce exactly the same result object as the same run with
every node built with ``validate=True`` (which forces the object
reference path), on both gossip engines.  Figure 4 exercises the full
receive/partition/merge pipeline (GM scheme, crashes, both protocols).
"""

from __future__ import annotations

import pytest

import repro.protocols.classification as classification
from repro.experiments.common import Scale
from repro.experiments.fig4 import run_fig4

SMOKE = Scale(name="smoke", n_nodes=40, max_rounds=12, deltas=(10.0,))


def _fig4(engine: str):
    scale = SMOKE.with_overrides(engine=engine)
    return run_fig4(scale, delta=10.0, rounds=10, seed=4)


def _force_object_path(monkeypatch) -> list:
    """Build every network node with ``validate=True``; returns the nodes."""
    node_class = classification.ClassifierNode
    built = []

    def object_path_node(*args, **kwargs):
        kwargs["validate"] = True
        node = node_class(*args, **kwargs)
        built.append(node)
        return node

    monkeypatch.setattr(classification, "ClassifierNode", object_path_node)
    return built


@pytest.mark.slow
@pytest.mark.parametrize("engine", ["rounds", "async"])
def test_fig4_output_identical_under_packed_toggle(monkeypatch, engine):
    packed = _fig4(engine)
    object_nodes = _force_object_path(monkeypatch)
    plain = _fig4(engine)
    assert object_nodes and not any(node.native for node in object_nodes)
    # Fig4Result is tuples of floats: == here means bit-identical traces.
    assert packed == plain
    # Guard against a vacuous pass (e.g. all-zero error traces).
    assert any(error > 0 for error in packed.robust_no_crashes)
