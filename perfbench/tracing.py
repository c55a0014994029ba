"""Outside-in layer timing: wrap public methods, attribute self time.

The tracer never touches ``src/``.  It replaces a class attribute with a
timing wrapper for the duration of a ``with`` block and restores the
original afterwards, so the untraced runs execute exactly the code users
get.  Each wrapped method belongs to a named layer.  A layer's *total*
is the wall time of its outermost open calls; its *self* time is that
total minus the time spent in other wrapped layers it called.  Summed
over every layer, self times partition the time spent inside the
outermost wrapped calls, which is what lets a traced run show that its
layers account for the run's wall time.
"""

from __future__ import annotations

import functools
import time
from typing import Any, Callable, Dict, Iterable, List, Tuple

__all__ = ["LayerTimes", "Tracer"]


class LayerTimes:
    """Calls, inclusive seconds and self seconds of one layer."""

    __slots__ = ("calls", "total_s", "self_s")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0


class Tracer:
    """Times calls into named layers while installed.

    ``targets`` lists ``(owner, attribute, layer)`` triples; several
    attributes may share one layer.  A call into a layer that is already
    the innermost open span (a layer calling itself, directly or through
    a sibling method of the same layer) counts as a call but opens no
    second span, so inclusive time is never counted twice.
    """

    def __init__(self, targets: Iterable[Tuple[Any, str, str]]) -> None:
        self.targets = list(targets)
        self.layers: Dict[str, LayerTimes] = {
            layer: LayerTimes() for _, _, layer in self.targets
        }
        # Open spans, innermost last: [layer, seconds covered by children].
        self._stack: List[List[Any]] = []
        self._saved: List[Tuple[Any, str, Any]] = []

    def _wrap(self, function: Callable[..., Any], layer: str) -> Callable[..., Any]:
        times = self.layers[layer]
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            times.calls += 1
            if stack and stack[-1][0] == layer:
                return function(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                times.total_s += elapsed
                times.self_s += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed

        return traced

    def __enter__(self) -> "Tracer":
        for owner, attribute, layer in self.targets:
            # An inherited method is wrapped on ``owner`` and the wrapper
            # deleted again on exit, which leaves the base class untouched.
            self._saved.append((owner, attribute, owner.__dict__.get(attribute)))
            setattr(owner, attribute, self._wrap(getattr(owner, attribute), layer))
        return self

    def __exit__(self, *exc_info: Any) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            if original is None:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)

    def accounted_s(self) -> float:
        """Seconds inside the outermost wrapped calls (sum of self times)."""
        return sum(times.self_s for times in self.layers.values())
