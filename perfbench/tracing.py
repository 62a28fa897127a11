"""Span tracing around gsg's public functions, installed from outside.

Each wrapped function opens a span for its layer.  A span's self time is
its duration minus the time covered by the spans it opened, so nested calls
(``classify`` calling ``check_associativity``, ``fold`` calling
``verify_homomorphism``) are charged to the innermost layer.  Only totals
are kept: per layer the self time, per function the call count, plus a few
counters read off arguments and results.

A function is often bound under one name in several modules
(``from .core import verify_homomorphism`` copies the reference into
``words``, ``congruences``, ``amalgams`` and ``cli``), so the wrapper is
installed in every ``gsg`` module namespace that holds the original.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter, defaultdict

# sub-layers of gsg.amalgams; its other public functions count as reports
AMALGAM_LAYERS = {
    "words_equal_within": "amalgams.search",
    "mu": "amalgams.search",
    "relation_generators": "amalgams.relations",
    "validate_amalgam": "amalgams.relations",
    "replay_chain": "amalgams.replay",
}
TEXTIO_LAYERS = {"parse": "textio.parse", "serialize": "textio.serialize"}
MODULE_LAYERS = ("core", "congruences", "amalgams", "textio", "cli")


def _public_functions(module):
    names = getattr(module, "__all__", None) or [n for n in vars(module) if not n.startswith("_")]
    for name in names:
        fn = getattr(module, name, None)
        if inspect.isfunction(fn) and fn.__module__ == module.__name__:
            yield name, fn


class Tracer:
    """Aggregated spans for one traced phase.  install() and uninstall()
    swap the wrappers in and out, so untraced and traced phases can
    alternate in one process."""

    def __init__(self):
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()       # by layer and by "layer.function"
        self.counters: Counter = Counter()    # verdicts, chain steps, parsed lines
        self.max_states = 0
        self._stack: list[float] = []         # child time of each open span
        self._patches: list[tuple[object, str, object]] = []
        self._states_in_search = 0

    # spans ----------------------------------------------------------------

    def span(self, layer: str, fn, key: str, observe=None):
        """fn wrapped in a span of `layer`, counted under `layer` and `key`;
        `observe(result, args, kwargs)` may update counters after the call."""
        stack = self._stack
        self_s, calls = self.self_s, self.calls

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - start
                self_s[layer] += dur - stack.pop()
                if stack:
                    stack[-1] += dur
                calls[layer] += 1
                calls[key] += 1
            if observe is not None:
                observe(result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", layer)
        return traced

    # installation -----------------------------------------------------------

    def install(self, gsg) -> None:
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "gsg" or name.startswith("gsg."))]
        for short in MODULE_LAYERS:
            module = getattr(gsg, short, None) or sys.modules.get(f"gsg.{short}")
            if module is None:
                continue
            for name, fn in _public_functions(module):
                if short == "amalgams":
                    layer = AMALGAM_LAYERS.get(name, "amalgams.report")
                elif short == "textio":
                    layer = TEXTIO_LAYERS.get(name, "textio.parse")
                else:
                    layer = short
                wrapper = self.span(layer, fn, f"{short}.{name}", self._observer(name))
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is fn:
                            self._patch(m, attr, wrapper)
        words = sys.modules.get("gsg.words")
        product = getattr(words, "FreeProduct", None)
        if product is not None:
            for name, fn in list(vars(product).items()):
                if inspect.isfunction(fn) and not name.startswith("_"):
                    self._patch(product, name, self.span("words", fn, f"words.{name}"))
        search = getattr(sys.modules.get("gsg.amalgams"), "_Search", None)
        if search is not None and hasattr(search, "explore") and hasattr(search, "neighbors"):
            # state counts of the BFS: one neighbors() call per expanded state
            self._patch(search, "explore", self._count_search(search.explore))
            self._patch(search, "neighbors", self._count_state(search.neighbors))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    # counters read off arguments and results --------------------------------

    def _observer(self, name: str):
        counters = self.counters
        if name == "words_equal_within":
            def observe(verdict, args, kwargs):
                counters["search.queries"] += 1
                counters["search.equal"] += bool(verdict.equal)
                counters["search.budget"] += verdict.limit == "budget"
            return observe
        if name == "replay_chain":
            def observe(result, args, kwargs):
                counters["replay.steps"] += len(kwargs["chain"] if "chain" in kwargs else args[2])
            return observe
        if name == "parse":
            def observe(result, args, kwargs):
                text = kwargs["text"] if "text" in kwargs else args[0]
                counters["parse.lines"] += text.count("\n") + (not text.endswith("\n"))
            return observe
        return None

    def _count_search(self, fn):
        tracer = self

        def explore(*args, **kwargs):
            outer = tracer._states_in_search
            tracer._states_in_search = 0
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.max_states = max(tracer.max_states, tracer._states_in_search)
                tracer._states_in_search = outer
        return explore

    def _count_state(self, fn):
        tracer = self
        counters = self.counters

        def neighbors(*args, **kwargs):
            tracer._states_in_search += 1
            counters["search.states"] += 1
            return fn(*args, **kwargs)
        return neighbors

    # report -----------------------------------------------------------------

    def layer_metrics(self, ops: int, harness_extra_s: float, overhead_pct: float) -> dict:
        """Per-layer metrics, each per operation unless it is a ratio."""
        c, k = self.calls, self.counters
        queries = k["search.queries"]
        parse_s = self.self_s["textio.parse"]

        def per_op(x):
            return x / ops

        m = {}
        for layer in ("core", "congruences", "words"):
            m[f"{layer}.self_s"] = (per_op(self.self_s[layer]), "s/op")
            m[f"{layer}.calls"] = (per_op(c[layer]), "count/op")
        m["core.verify_homomorphism.calls"] = (per_op(c["core.verify_homomorphism"]), "count/op")
        m["words.fold.calls"] = (per_op(c["words.fold"]), "count/op")
        m["amalgams.search.self_s"] = (per_op(self.self_s["amalgams.search"]), "s/op")
        m["amalgams.search.calls"] = (per_op(c["amalgams.search"]), "count/op")
        m["amalgams.search.equal_share"] = (k["search.equal"] / queries if queries else 0.0, "share")
        m["amalgams.search.budget_stop_share"] = (k["search.budget"] / queries if queries else 0.0,
                                                  "share")
        m["amalgams.search.states"] = (per_op(k["search.states"]), "count/op")
        m["amalgams.search.max_states"] = (float(self.max_states), "count")
        m["amalgams.relations.self_s"] = (per_op(self.self_s["amalgams.relations"]), "s/op")
        m["amalgams.relations.calls"] = (per_op(c["amalgams.relations"]), "count/op")
        m["amalgams.report.self_s"] = (per_op(self.self_s["amalgams.report"]), "s/op")
        m["amalgams.replay.self_s"] = (per_op(self.self_s["amalgams.replay"]), "s/op")
        m["amalgams.chain_steps"] = (per_op(k["replay.steps"]), "count/op")
        m["textio.parse.self_s"] = (per_op(parse_s), "s/op")
        m["textio.parse.lines_per_s"] = (k["parse.lines"] / parse_s if parse_s else 0.0, "1/s")
        m["textio.serialize.self_s"] = (per_op(self.self_s["textio.serialize"]), "s/op")
        m["cli.self_s"] = (per_op(self.self_s["cli"]), "s/op")
        m["harness.self_s"] = (per_op(self.self_s["harness"]) + harness_extra_s, "s/op")
        m["trace.overhead_pct"] = (overhead_pct, "%")
        return {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()}
