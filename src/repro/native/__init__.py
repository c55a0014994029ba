"""Batched numpy kernels for the receive/merge inner loop.

The gossip hot path spends its time in three primitives: the hard-EM
reduction behind :mod:`repro.ml.reduction`, the greedy closest-pair
partition behind :mod:`repro.schemes`, and the packed merge/quanta
arithmetic behind :class:`repro.core.node.ClassifierNode`'s packed
receive path and :class:`repro.mega.ReceiveSolver`.
:mod:`repro.native.kernels` hosts one batched numpy implementation of
each, byte-identical to the unbatched reference it replaces
(``tests/native`` pins both the kernels and the end-to-end runs).
There is a single execution tier and nothing to configure.
"""

from __future__ import annotations

from typing import Any

import numpy as np

__all__ = ["status"]


def status() -> dict[str, Any]:
    """Report the execution tier (surfaced by ``repro.obs.report``)."""
    return {"tier": "numpy", "numpy_version": np.__version__}
