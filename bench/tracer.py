"""Outside-in tracing of the anarchy layers.

The tracer replaces chosen library functions with timing wrappers for the
length of a ``with`` block and puts the originals back afterwards. Nothing
inside the library changes: a function is rebound in every ``anarchy``
module that imported it by name, and the library's own call sites (rule
lambdas included) look those names up at call time, so they reach the
wrapper.

Each wrapped call records a span (id, parent span, layer, start, end, op
id) and adds to its layer's count and self time. Self time is the call's
duration minus the time covered by the traced calls nested in it, so the
self times of all layers plus the op's own remainder add up to the op's
wall time. Layers marked ``aggregate`` keep only count and total (no span
per call): they are hot leaves whose per-call spans would cost more than
the work they time.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Optional

OP_LAYER = "op"  # root span of one benchmark op; its self time is untraced work


@dataclass(frozen=True)
class Layer:
    """How one library function is traced.

    key(args, kwargs) names the input for the distinct/reuse count;
    outcomes adds len(result) to an outcome count; aggregate drops per-call
    spans in favour of count plus total.
    """

    qualname: str  # module path inside the package plus function name
    key: Optional[Callable] = None
    outcomes: bool = False
    aggregate: bool = False


@dataclass
class LayerStats:
    calls: int = 0
    self_s: float = 0.0
    outcomes: int = 0
    keys: set = field(default_factory=set)

    def counts(self) -> tuple:
        """Everything that must repeat exactly for the same inputs."""
        return (self.calls, self.outcomes, len(self.keys))


class Tracer:
    """Patch the given layers of ``package`` while the tracer is active."""

    def __init__(self, package: str, layers, record_spans: bool = True):
        self.package = package
        self.layers = {layer.qualname: layer for layer in layers}
        self.record_spans = record_spans
        self.stats = {name: LayerStats() for name in self.layers}
        self.stats[OP_LAYER] = LayerStats()
        self.spans = []  # (span, parent, layer, start, end, op)
        self._stack = []  # frames [span id, seconds covered by child spans]
        self._next_span = 0
        self._op_id = None
        self._patches = []

    # ---------------------------------------------------------- patching

    def __enter__(self) -> "Tracer":
        try:
            for name, layer in self.layers.items():
                self._patch(name, layer)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _patch(self, name: str, layer: Layer) -> None:
        module_path, _, attr = name.rpartition(".")
        home = importlib.import_module(f"{self.package}.{module_path}")
        original = getattr(home, attr)
        wrapper = self._wrap(name, original, layer)
        prefix = self.package + "."
        for mod_name, module in list(sys.modules.items()):
            if mod_name != self.package and not mod_name.startswith(prefix):
                continue
            if getattr(module, attr, None) is original:
                setattr(module, attr, wrapper)
                self._patches.append((module, attr, original))

    def restore(self) -> None:
        """Put every patched attribute back to its original object."""
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    @property
    def patched(self) -> list:
        """(module name, attribute) pairs currently bound to a wrapper."""
        return [(m.__name__, a) for m, a, _ in self._patches]

    # ----------------------------------------------------------- timing

    def _open(self) -> list:
        self._next_span += 1
        frame = [self._next_span, 0.0]
        self._stack.append(frame)
        return frame

    def _close(self, name: str, frame: list, start: float, end: float, spanned: bool):
        self._stack.pop()
        duration = end - start
        parent = 0
        if self._stack:
            self._stack[-1][1] += duration
            parent = self._stack[-1][0]
        stats = self.stats[name]
        stats.calls += 1
        stats.self_s += duration - frame[1]
        if spanned and self.record_spans:
            self.spans.append((frame[0], parent, name, start, end, self._op_id))

    def _wrap(self, name: str, original: Callable, layer: Layer) -> Callable:
        stats = self.stats[name]
        key = layer.key
        spanned = not layer.aggregate

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if key is not None:
                stats.keys.add(key(args, kwargs))
            frame = self._open()
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(name, frame, start, perf_counter(), spanned)
            if layer.outcomes:
                stats.outcomes += len(result)
            return result

        return traced

    def op(self, op_id: int, fn: Callable, *args):
        """Run one benchmark op under a root span; returns (result, seconds)."""
        self._op_id = op_id
        frame = self._open()
        start = perf_counter()
        try:
            result = fn(*args)
        finally:
            end = perf_counter()
            self._close(OP_LAYER, frame, start, end, True)
            self._op_id = None
        return result, end - start

    def write_spans(self, path: str) -> None:
        """One JSON object per line; times in seconds from the first span."""
        origin = min((s[3] for s in self.spans), default=0.0)
        with open(path, "w") as fh:
            for span, parent, name, start, end, op_id in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "span": span,
                            "parent": parent,
                            "name": name,
                            "start": round(start - origin, 9),
                            "end": round(end - origin, 9),
                            "op": op_id,
                        }
                    )
                )
                fh.write("\n")
