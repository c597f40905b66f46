"""Per-layer tracing from outside the program.

The tracer replaces the public callables ``schema.LAYERS`` lists with
wrappers (attribute replacement on the class, or on every loaded module
that imported the function), records one in-memory span per call while
``recording`` is on, and puts every original back in :meth:`restore`.
Nothing inside ``src/repro`` knows it is being traced.

A span is ``[name, layer, start_ns, end_ns, parent, op]``: ``parent`` is
the index of the enclosing span (-1 at the top), ``op`` says which op the
call served - ``i >= 0`` inside the timed window of op *i*, ``-2 - i``
during op *i*'s untimed sim-clock advance, ``-1`` during set-up.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from .schema import Layer

SETUP_OP = -1
# Spans written to the trace file; the fold always covers every span.
TRACE_FILE_SPANS = 20_000

# What a wrapped call moved, summed under a metric-like key: the bytes the
# codec handled, the clients a catchment call mapped.  ``args`` includes
# ``self``/``cls``.
Measure = Tuple[str, Callable[[Tuple[Any, ...], Any], int]]
MEASURES: Dict[Tuple[str, str], Measure] = {
    ("bgp.codec", "encode"): ("bgp.codec.bytes", lambda args, result: len(result)),
    ("bgp.codec", "decode"): ("bgp.codec.bytes", lambda args, result: len(args[0])),
    ("anycast.catchment", "compute"): (
        "anycast.catchment.clients", lambda args, result: args[2].total_clients),
    ("anycast.catchment", "compute_many"): (
        "anycast.catchment.clients",
        lambda args, result: args[2].total_clients * len(result)),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: List[List[Any]] = []
        self.recording = False
        self.op = SETUP_OP
        self.sums: Dict[str, int] = {}
        self._stack: List[int] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- patching --------------------------------------------------------------

    def install(self, layers: Iterable[Layer]) -> None:
        for layer in layers:
            for module_name, owner_name, attrs in layer.wraps:
                module = importlib.import_module(module_name)
                for attr in attrs:
                    owner = owner_name or module_name.rsplit(".", 1)[-1]
                    wrap = functools.partial(
                        self._wrap, label=f"{owner}.{attr}", layer=layer.name,
                        measure=MEASURES.get((layer.name, attr)),
                    )
                    if owner_name:
                        self._patch_method(getattr(module, owner_name), attr, wrap)
                    else:
                        self._patch_function(getattr(module, attr), attr, wrap)

    def _patch_method(self, owner: type, attr: str, wrap: Callable[..., Any]) -> None:
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapped: Any = classmethod(wrap(raw.__func__))
        else:
            wrapped = wrap(raw)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def _patch_function(
        self, fn: Callable[..., Any], attr: str, wrap: Callable[..., Any]
    ) -> None:
        """``from x import f`` copies the reference, so the wrapper has to
        go wherever the original is bound under its own name."""
        wrapped = wrap(fn)
        for name, module in list(sys.modules.items()):
            if module is None or not name.startswith(("repro.", f"{__package__}.")):
                continue
            if module.__dict__.get(attr) is fn:
                self._patches.append((module, attr, fn))
                setattr(module, attr, wrapped)

    def _wrap(
        self, fn: Callable[..., Any], label: str, layer: str, measure: Optional[Measure]
    ) -> Callable[..., Any]:
        spans, stack, sums, now = self.spans, self._stack, self.sums, time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not tracer.recording:
                return fn(*args, **kwargs)
            span = [label, layer, now(), 0, stack[-1] if stack else -1, tracer.op]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if measure is not None:
                    sums[measure[0]] = sums.get(measure[0], 0) + measure[1](args, result)
                return result
            finally:
                span[3] = now()
                stack.pop()

        return traced

    def restore(self) -> None:
        """Put every replaced attribute back (last replaced first)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @property
    def patched(self) -> List[Tuple[Any, str, Any]]:
        """(owner, attribute, original) of everything currently replaced."""
        return list(self._patches)

    # -- output ----------------------------------------------------------------

    def write(self, path: Path, fold: "Fold", extra: Dict[str, Any]) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            **extra,
            "span_fields": ["name", "layer", "start_ns", "end_ns", "parent", "op"],
            "spans_total": len(self.spans),
            "spans": self.spans[:TRACE_FILE_SPANS],
            "layers": fold.table(),
        }
        path.write_text(json.dumps(payload) + "\n")


class Fold:
    """Self time per layer: a span's duration minus the part of it its
    child spans cover (one thread, so children nest and never overlap)."""

    def __init__(self, spans: List[List[Any]]) -> None:
        child_ns = [0] * len(spans)
        for span in spans:
            if span[4] >= 0:
                child_ns[span[4]] += span[3] - span[2]
        # layer -> [calls, self_ns], set-up spans apart from op spans
        self.setup: Dict[str, List[int]] = {}
        self.ops: Dict[str, List[int]] = {}
        # span name -> [calls, inclusive_ns], op spans only
        self.by_name: Dict[str, List[int]] = {}
        # top-level span time inside the ops' timed windows
        self.root_timed_ns = 0
        for index, (name, layer, start, end, parent, op) in enumerate(spans):
            row = (self.setup if op == SETUP_OP else self.ops).setdefault(layer, [0, 0])
            row[0] += 1
            row[1] += (end - start) - child_ns[index]
            if op == SETUP_OP:
                continue
            named = self.by_name.setdefault(name, [0, 0])
            named[0] += 1
            named[1] += end - start
            if op >= 0 and parent < 0:
                self.root_timed_ns += end - start

    def calls(self, layer: str, with_setup: bool = False) -> int:
        return self.ops.get(layer, [0, 0])[0] + (
            self.setup.get(layer, [0, 0])[0] if with_setup else 0
        )

    def self_ms(self, layer: str, with_setup: bool = False) -> float:
        return (
            self.ops.get(layer, [0, 0])[1]
            + (self.setup.get(layer, [0, 0])[1] if with_setup else 0)
        ) / 1e6

    def inclusive_s(self, *names: str) -> float:
        return sum(self.by_name.get(name, [0, 0])[1] for name in names) / 1e9

    def table(self) -> Dict[str, Dict[str, float]]:
        return {
            layer: {
                "calls_setup": self.calls(layer, True) - self.calls(layer),
                "self_ms_setup": self.self_ms(layer, True) - self.self_ms(layer),
                "calls_ops": self.calls(layer),
                "self_ms_ops": self.self_ms(layer),
            }
            for layer in sorted(set(self.setup) | set(self.ops))
        }
