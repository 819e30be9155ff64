"""Spans recorded from outside the program, for the traced run.

Nothing here is imported into ``repro``: :class:`Tracer` swaps public entry
points of each layer for thin wrappers while a traced round runs and puts
the originals back afterwards, so an untraced run executes the program
exactly as shipped.  Spans are kept in memory (one list per span) and
written as JSON Lines when the run ends.

A layer's *self time* is its spans' durations minus the time covered by
their child spans; the run is single-threaded, so children never overlap.
"""

from __future__ import annotations

import json
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

# Span record layout (a list, mutated in place while the span is open).
_LAYER, _START, _END, _PARENT, _CHILD_NS, _OP, _INFO = range(7)

#: Modules searched for by-name imports of a wrapped function, besides
#: every loaded ``repro.*`` module.
_OWN_MODULES = ("workloads",)


class Tracer:
    """In-memory span recorder plus the table of wrapped entry points."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[list] = []
        self._op = -1
        self._patches: List[Tuple[object, str, object, object]] = []

    # -- recording ------------------------------------------------------------

    def begin_op(self, index: int, label: str) -> list:
        self._op = index
        return self._open(label)

    def end_op(self, span: list) -> None:
        self._close(span)

    def _open(self, layer: str) -> list:
        parent = self._stack[-1] if self._stack else None
        span = [layer, time.perf_counter_ns(), 0, parent, 0, self._op, None]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: list) -> None:
        span[_END] = time.perf_counter_ns()
        self._stack.pop()
        parent = span[_PARENT]
        if parent is not None:
            parent[_CHILD_NS] += span[_END] - span[_START]

    def _wrap(self, layer: str, function: Callable,
              info: Optional[Callable]) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            span = tracer._open(layer)
            try:
                result = function(*args, **kwargs)
            finally:
                tracer._close(span)
            if info is not None:
                span[_INFO] = info(args, result)
            return result

        traced.__wrapped__ = function
        return traced

    # -- installing -----------------------------------------------------------

    def prepare(self, targets) -> None:
        """Build a wrapper for every ``(owner, attribute, layer, info)``
        target.  A module-level function is also replaced in every module
        that imported it by name, so callers that bound it at import time
        are traced too.  Nothing is installed yet."""
        for owner, attribute, layer, info in targets:
            raw = owner.__dict__[attribute]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(layer, raw.__func__, info))
            elif isinstance(raw, property):
                wrapped = property(self._wrap(layer, raw.fget, info),
                                   raw.fset, raw.fdel, raw.__doc__)
            else:
                wrapped = self._wrap(layer, raw, info)
            self._patches.append((owner, attribute, raw, wrapped))
            if isinstance(owner, type):
                continue
            for name, module in list(sys.modules.items()):
                if module is None or module is owner:
                    continue
                if not (name.startswith("repro") or name in _OWN_MODULES):
                    continue
                for alias, value in list(vars(module).items()):
                    if value is raw:
                        self._patches.append((module, alias, raw, wrapped))

    def install(self) -> None:
        for owner, attribute, _, wrapped in self._patches:
            setattr(owner, attribute, wrapped)

    def uninstall(self) -> None:
        for owner, attribute, original, _ in reversed(self._patches):
            setattr(owner, attribute, original)

    # -- reading --------------------------------------------------------------

    def self_seconds(self, ops: Optional[set] = None) -> Dict[str, float]:
        """Layer → total self time (seconds) over spans of ``ops`` (all ops
        when ``None``)."""
        totals: Dict[str, float] = {}
        for span in self.spans:
            if ops is not None and span[_OP] not in ops:
                continue
            own = span[_END] - span[_START] - span[_CHILD_NS]
            totals[span[_LAYER]] = totals.get(span[_LAYER], 0.0) + own / 1e9
        return totals

    def infos(self, layer: str, ops: set, top_level: bool = False) -> list:
        """The ``info`` payloads of ``layer`` spans in ``ops``; with
        ``top_level`` only spans with no ancestor of the same layer."""
        found = []
        for span in self.spans:
            if span[_LAYER] != layer or span[_OP] not in ops:
                continue
            if top_level and _has_ancestor(span, layer):
                continue
            found.append(span[_INFO])
        return found

    def write(self, path) -> None:
        ids = {id(span): index for index, span in enumerate(self.spans)}
        with open(path, "w") as handle:
            for index, span in enumerate(self.spans):
                parent = span[_PARENT]
                handle.write(json.dumps({
                    "id": index,
                    "op": span[_OP],
                    "layer": span[_LAYER],
                    "start_ns": span[_START],
                    "end_ns": span[_END],
                    "parent": None if parent is None else ids[id(parent)],
                    "info": span[_INFO],
                }, default=repr) + "\n")


def _has_ancestor(span: list, layer: str) -> bool:
    parent = span[_PARENT]
    while parent is not None:
        if parent[_LAYER] == layer:
            return True
        parent = parent[_PARENT]
    return False
