"""Spans around the package's public functions, installed from outside it.

``Tracer.install`` wraps every public function of the layer modules and
rebinds each module attribute that refers to one, so by-name imports such as
``cli.serialize`` or ``construct.canonicalize`` are traced too; it also
patches ``Coloring.__init__`` on the class.  ``uninstall`` restores every
original.  Spans stay in memory until ``write``.

A span is (name, start, end, parent index, request id, info); ``info`` holds
whether ``rainbow_witness`` found a triangle and the node count of an oracle
verdict.  A layer's self time is its spans' durations minus the time their
child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict
from typing import Any, Callable, Optional

LAYERS = ("cli", "core", "construct", "verify", "oracle", "generator")
# O(1) index arithmetic called inside the builders' inner loops: a span per
# call would cost more than the call, so their time stays in the caller's.
UNTRACED = {"core.edge_index", "core.total_edges"}

INFO: dict[str, Callable[[Any], Any]] = {
    "verify.rainbow_witness": lambda result: result is not None,
    "oracle.search_realizable": lambda verdict: verdict.nodes_explored,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Optional[tuple]] = []
        self.request: Optional[str] = None
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, clock, info = self.spans, self._stack, time.perf_counter, INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            detail = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if info is not None:
                    detail = info(result)
                return result
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, start, end, parent, self.request, detail)

        return traced

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"gallai.{layer}") for layer in LAYERS}
        wrapped: dict[Callable, Callable] = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                name = f"{layer}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and name not in UNTRACED):
                    wrapped[obj] = self._wrap(name, obj)
        for mod in [importlib.import_module("gallai"), *modules.values()]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[obj])
        coloring = modules["core"].Coloring
        self._patches.append((coloring, "__init__", coloring.__init__))
        coloring.__init__ = self._wrap("core.Coloring.__init__", coloring.__init__)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for sid, span in enumerate(self.spans):
                name, start, end, parent, request, info = span
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "request": request, "info": info}) + "\n")


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(spans: list[tuple]) -> dict[str, float]:
    """Per-layer metrics of one pass's spans."""
    child_time: dict[int, float] = defaultdict(float)
    for sid in range(len(spans)):
        _, start, end, parent, _, _ = spans[sid]
        if parent >= 0:
            child_time[parent] += end - start
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    inclusive: dict[str, float] = defaultdict(float)
    found = nodes = fastpath = fallbacks = 0
    roots = 0.0
    for sid in range(len(spans)):
        name, start, end, parent, _, info = spans[sid]
        duration = end - start
        self_s[name.split(".", 1)[0]] += duration - child_time[sid]
        calls[name] += 1
        if parent < 0:
            roots += duration
        # Inclusive time counts only the outermost span of a recursive function.
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            inclusive[name] += duration
        if name == "verify.rainbow_witness":
            found += bool(info)
        elif name == "oracle.search_realizable":
            nodes += info or 0
            fastpath += info == 0
        elif name == "construct.star_partition_for" and parent >= 0 and spans[parent][0] in (
                "construct.construct_division", "construct.construct_balanced"):
            fallbacks += 1
    searches = calls["oracle.search_realizable"]
    out = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
    out.update({
        "core.coloring_init.calls": calls["core.Coloring.__init__"],
        "core.coloring_init.s": inclusive["core.Coloring.__init__"],
        "core.serialize.s": inclusive["core.serialize"],
        "core.deserialize.s": inclusive["core.deserialize"],
        "construct.fallback.calls": fallbacks,
        "construct.star_search.calls": calls["construct.star_partition_for"],
        "construct.star_search.s": inclusive["construct.star_partition_for"],
        "construct.replay_peel.s": inclusive["construct.replay_peel"],
        "construct.extend_by_star.calls": calls["construct.extend_by_star"],
        "construct.k4_base.s": inclusive["construct.construct_k4_base"],
        "verify.rainbow_witness.calls": calls["verify.rainbow_witness"],
        "verify.rainbow_witness.s": inclusive["verify.rainbow_witness"],
        "verify.rainbow_witness.found_ratio": _ratio(found, calls["verify.rainbow_witness"]),
        "verify.is_special_coloring.s": inclusive["verify.is_special_coloring"],
        "verify.class_sizes.s": inclusive["verify.class_sizes"],
        "oracle.search.calls": searches,
        "oracle.search.s": inclusive["oracle.search_realizable"],
        "oracle.nodes": nodes,
        "oracle.nodes_per_s": _ratio(nodes, self_s["oracle"]),
        "oracle.nodes_per_verdict": _ratio(nodes, searches),
        "oracle.fastpath_ratio": _ratio(fastpath, searches),
        "generator.random_gallai.s": inclusive["generator.random_gallai"],
        "trace.requests_s": roots,
    })
    return out
