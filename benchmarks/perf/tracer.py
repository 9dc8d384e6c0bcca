"""Wall-clock span tracer that instruments the simulator from outside.

``repro.obs`` traces in *simulated* time by design, so it cannot say where
host seconds go.  This tracer wraps public functions of each layer from the
benchmark's side (nothing under ``src/`` changes), records one span per
call — layer, start, end, parent span, interval id — in flat arrays, and
derives each layer's *self* time afterwards: a span's duration minus the
part its child spans cover.

Rules the arithmetic depends on:

* a call whose direct parent span belongs to the same layer is not a new
  span (``PartitionedBufferPool.access_many`` dispatching to its child
  ``LRUBufferPool.access_many`` is one pool access, not two);
* only spans stamped with an interval id >= 0 count, so set-up and warm-up
  work never leaks into the ledger;
* a function is patched at every binding that holds it, because
  ``from x import y`` copies the reference.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array
from collections.abc import Callable, Sequence

import numpy as np

__all__ = ["Tracer"]

CountFn = Callable[[tuple, object], Sequence[float]]


class Tracer:
    """Records spans around patched callables and sums self time per layer."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.layers: list[str] = []
        self.counts: dict[str, float] = {}
        self.current_interval = -1
        self._layer_ids: dict[str, int] = {}
        self._layer = array("l")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("l")
        self._interval = array("l")
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self._start)

    # ------------------------------------------------------------------ #
    # Wrapping                                                           #
    # ------------------------------------------------------------------ #

    def wrap(
        self,
        layer: str,
        fn: Callable,
        count_names: Sequence[str] = (),
        count: CountFn | None = None,
    ) -> Callable:
        """``fn`` with a span of ``layer`` recorded around every call.

        ``count(args, result)`` returns one number per name in
        ``count_names``; each is added to ``counts["<layer>.<name>"]`` when
        the call happens inside an interval.
        """
        layer_id = self._layer_ids.get(layer)
        if layer_id is None:
            layer_id = self._layer_ids[layer] = len(self.layers)
            self.layers.append(layer)
        keys = [f"{layer}.{name}" for name in count_names]
        for key in keys:
            self.counts.setdefault(key, 0)
        counts = self.counts
        clock = self.clock
        stack = self._stack
        layers, starts, ends = self._layer, self._start, self._end
        parents, intervals = self._parent, self._interval

        def traced(*args, **kwargs):
            if stack and layers[stack[-1]] == layer_id:
                return fn(*args, **kwargs)
            index = len(starts)
            layers.append(layer_id)
            parents.append(stack[-1] if stack else -1)
            intervals.append(self.current_interval)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if count is not None and intervals[index] >= 0:
                for key, value in zip(keys, count(args, result)):
                    counts[key] += value
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(
        self,
        layer: str,
        owner: object,
        name: str,
        count_names: Sequence[str] = (),
        count: CountFn | None = None,
    ) -> int:
        """Replace ``owner.name`` (a class or a module) by its traced form.

        ``classmethod``/``staticmethod`` targets are unwrapped and re-wrapped
        in the same descriptor.  A module-level function is rebound in every
        loaded module of the same top-level package that holds the very same
        object (definition, package re-export, ``from x import y`` sites).
        Returns the number of bindings patched; raises ``KeyError`` when
        ``owner`` does not define ``name`` itself, so a rename in the traced
        program fails loudly.
        """
        original = vars(owner)[name]
        if isinstance(original, (classmethod, staticmethod)):
            wrapped: object = type(original)(
                self.wrap(layer, original.__func__, count_names, count)
            )
        else:
            wrapped = self.wrap(layer, original, count_names, count)
        if inspect.ismodule(owner):
            package = owner.__name__.partition(".")[0]
            bindings = [
                (module, attr)
                for module_name, module in list(sys.modules.items())
                if module is not None
                and module_name.partition(".")[0] == package
                for attr, value in list(vars(module).items())
                if value is original
            ]
        else:
            bindings = [(owner, name)]
        for holder, attr in bindings:
            self._patched.append((holder, attr, original))
            setattr(holder, attr, wrapped)
        return len(bindings)

    def uninstall(self) -> None:
        """Put every original object back where :meth:`patch` found it."""
        while self._patched:
            holder, attr, original = self._patched.pop()
            setattr(holder, attr, original)

    # ------------------------------------------------------------------ #
    # The ledger                                                         #
    # ------------------------------------------------------------------ #

    def columns(self) -> dict[str, np.ndarray]:
        """The recorded spans as parallel arrays (what ``--spans`` saves).

        Copies, so tracing may continue while the caller holds them.
        """
        return {
            "layer": np.array(self._layer, dtype=np.int64),
            "start": np.array(self._start, dtype=np.float64),
            "end": np.array(self._end, dtype=np.float64),
            "parent": np.array(self._parent, dtype=np.int64),
            "interval": np.array(self._interval, dtype=np.int64),
        }

    def ledger(self) -> dict[str, tuple[float, int]]:
        """``{layer: (self seconds, calls)}`` over spans inside an interval."""
        spans = self.columns()
        duration = spans["end"] - spans["start"]
        timed = spans["interval"] >= 0
        child = timed & (spans["parent"] >= 0)
        covered = np.bincount(
            spans["parent"][child], weights=duration[child], minlength=len(self)
        )
        self_time = duration - covered
        size = len(self.layers)
        seconds = np.bincount(
            spans["layer"][timed], weights=self_time[timed], minlength=size
        )
        calls = np.bincount(spans["layer"][timed], minlength=size)
        return {
            layer: (float(seconds[index]), int(calls[index]))
            for index, layer in enumerate(self.layers)
        }

    def save(self, path: str) -> None:
        """Write every span (set-up ones included) to a compressed ``.npz``."""
        np.savez_compressed(
            path, layers=np.asarray(self.layers, dtype=str), **self.columns()
        )
