"""Span tracer for the traced pass, installed from the benchmark's own files.

The tracer wraps public functions of the `catloop` modules at every module
attribute they are reachable through (``catloop.reward.iter_periodic_pairs``
is the same function object as ``catloop.geometry.iter_periodic_pairs``, and
callers inside `reward` look it up through `reward`).  Each call becomes a
span: name, parent span, start and end in nanoseconds, and the benchmark op
it belongs to.  Spans stay in memory until the pass ends.

A target that no longer exists is recorded as missing; every metric that
needs it is then reported as missing instead of crashing the pass.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass, field

# (span name, module, attribute path).  The layer is the part before the dot.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("cif.parse_cif", "catloop.cif", "parse_cif"),
    ("cif.serialize_cif", "catloop.cif", "serialize_cif"),
    ("reward.pvcp", "catloop.reward", "pvcp"),
    ("reward.pvcp_from_outcome", "catloop.reward", "pvcp_from_outcome"),
    ("reward.passes_hard_constraints", "catloop.reward", "passes_hard_constraints"),
    ("reward.score_physical", "catloop.reward", "score_physical"),
    ("reward.corpus_failure_rates", "catloop.reward", "corpus_failure_rates"),
    ("geometry.iter_periodic_pairs", "catloop.geometry", "iter_periodic_pairs"),
    ("geometry.min_image_distance", "catloop.geometry", "min_image_distance"),
    ("geometry.min_pair_distance", "catloop.geometry", "min_pair_distance"),
    ("geometry.build_neighbor_list", "catloop.geometry", "build_neighbor_list"),
    ("geometry.volume_per_atom", "catloop.geometry", "volume_per_atom"),
    ("search.propose", "catloop.search", "MutationGenerator.propose"),
    ("search.predict", "catloop.search", "PairPotentialSurrogate.predict"),
    ("search.run_search", "catloop.search", "run_search"),
    ("search.initialize_pool", "catloop.search", "initialize_pool"),
    ("search.refine_step", "catloop.search", "refine_step"),
    ("search.combined_reward", "catloop.search", "combined_reward"),
    ("search.pool_sample", "catloop.search", "ExemplarPool.sample"),
    ("search.pool_try_replace", "catloop.search", "ExemplarPool.try_replace"),
    ("textify.to_system_text", "catloop.textify", "to_system_text"),
    ("textify.find_interaction_atoms", "catloop.textify", "find_interaction_atoms"),
    ("cli.main", "catloop.cli", "main"),
    ("cli.build_manifest", "catloop.cli", "build_manifest"),
)

# Span fields, kept as lists for speed: name, parent index, start ns, end ns,
# op id, extra (a count recorded at the boundary, or None).
NAME, PARENT, START, END, OP, EXTRA = range(6)


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    missing: list = field(default_factory=list)
    op_id: int = -1
    _stack: list = field(default_factory=list)
    _patches: list = field(default_factory=list)
    _hard_results: dict = field(default_factory=dict)

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap every target that exists; record the ones that do not."""
        modules = [m for n, m in list(sys.modules.items())
                   if (n == "catloop" or n.startswith("catloop.")) and m is not None]
        for span_name, module_name, path in TARGETS:
            try:
                owner = importlib.import_module(module_name)
                *owner_path, attr = path.split(".")
                for part in owner_path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(span_name)
                continue
            wrapper = self._wrap(span_name, original)
            if owner_path:  # a method: patch the class attribute only
                self._patch(owner, attr, wrapper)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, span_name: str, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns
        extra = _EXTRAS.get(span_name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [span_name, stack[-1] if stack else -1, 0, 0, tracer.op_id, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if extra is not None:
                span[EXTRA] = extra(tracer, args, result)
            return result

        return wrapper

    # -- summaries -------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive ns, self ns, summed extra."""
        child_ns = [0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child_ns[span[PARENT]] += span[END] - span[START]
        out: dict[str, dict[str, float]] = {}
        for k, span in enumerate(self.spans):
            row = out.setdefault(
                span[NAME], {"calls": 0, "incl_ns": 0, "self_ns": 0, "extra": 0}
            )
            dur = span[END] - span[START]
            row["calls"] += 1
            row["incl_ns"] += dur
            row["self_ns"] += dur - child_ns[k]
            row["extra"] += span[EXTRA] or 0
        return out


# Counts recorded at a span boundary.  The hard check remembers its verdict
# per structure so the prediction that follows on the same structure can be
# classed as useful (hard check passed) or wasted.
def _pairs_found(tracer: Tracer, args, result) -> int:
    return len(result)


def _remember_hard_check(tracer: Tracer, args, result) -> int:
    tracer._hard_results[id(args[0])] = bool(result)
    return int(bool(result))


def _prediction_useful(tracer: Tracer, args, result) -> int:
    return int(tracer._hard_results.pop(id(args[1]), False))


_EXTRAS = {
    "geometry.iter_periodic_pairs": _pairs_found,
    "reward.passes_hard_constraints": _remember_hard_check,
    "search.predict": _prediction_useful,
}


def _layer(span_name: str) -> str:
    return span_name.split(".", 1)[0]


# Each per-layer metric: the spans it needs, and how it is computed from the
# span totals `t`, the item count and the op count.
def _ms(ns: float) -> float:
    return ns / 1e6


def _self_ns(t: dict, names) -> float:
    return sum(t.get(n, {}).get("self_ns", 0) for n in names)


def _layer_names(layer: str, exclude: tuple[str, ...] = ()) -> list[str]:
    return [n for n, _, _ in TARGETS if _layer(n) == layer and n not in exclude]


def _get(t: dict, name: str, key: str) -> float:
    return t.get(name, {}).get(key, 0)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


PER_LAYER: tuple[tuple[str, str, tuple[str, ...], object], ...] = (
    ("cif.parse_ms_per_item", "ms/item", ("cif.parse_cif",),
     lambda t, items, ops: _ms(_get(t, "cif.parse_cif", "self_ns")) / items),
    ("cif.serialize_ms_per_item", "ms/item", ("cif.serialize_cif",),
     lambda t, items, ops: _ms(_get(t, "cif.serialize_cif", "self_ns")) / items),
    ("reward.self_ms_per_item", "ms/item", tuple(_layer_names("reward")),
     lambda t, items, ops: _ms(_self_ns(t, _layer_names("reward"))) / items),
    ("reward.hard_check_ms_per_item", "ms/item", ("reward.passes_hard_constraints",),
     lambda t, items, ops: _ms(_get(t, "reward.passes_hard_constraints", "incl_ns")) / items),
    ("geometry.pair_enum_calls_per_item", "calls/item", ("geometry.iter_periodic_pairs",),
     lambda t, items, ops: _get(t, "geometry.iter_periodic_pairs", "calls") / items),
    ("geometry.pair_enum_ms_per_item", "ms/item", ("geometry.iter_periodic_pairs",),
     lambda t, items, ops: _ms(_get(t, "geometry.iter_periodic_pairs", "incl_ns")) / items),
    ("geometry.pairs_per_item", "pairs/item", ("geometry.iter_periodic_pairs",),
     lambda t, items, ops: _get(t, "geometry.iter_periodic_pairs", "extra") / items),
    ("geometry.min_image_calls_per_item", "calls/item", ("geometry.min_image_distance",),
     lambda t, items, ops: _get(t, "geometry.min_image_distance", "calls") / items),
    ("geometry.min_pair_ms_per_item", "ms/item", ("geometry.min_pair_distance",),
     lambda t, items, ops: _ms(_get(t, "geometry.min_pair_distance", "incl_ns")) / items),
    ("geometry.neighbor_list_self_ms_per_item", "ms/item", ("geometry.build_neighbor_list",),
     lambda t, items, ops: _ms(_get(t, "geometry.build_neighbor_list", "self_ns")) / items),
    ("search.propose_ms_per_item", "ms/item", ("search.propose",),
     lambda t, items, ops: _ms(_get(t, "search.propose", "self_ns")) / items),
    ("search.predict_self_ms_per_item", "ms/item", ("search.predict",),
     lambda t, items, ops: _ms(_get(t, "search.predict", "self_ns")) / items),
    ("search.loop_self_ms_per_item", "ms/item",
     tuple(_layer_names("search", ("search.propose", "search.predict"))),
     lambda t, items, ops: _ms(_self_ns(
         t, _layer_names("search", ("search.propose", "search.predict")))) / items),
    ("search.predict_useful_ratio", "ratio",
     ("search.predict", "reward.passes_hard_constraints"),
     lambda t, items, ops: _ratio(_get(t, "search.predict", "extra"),
                                  _get(t, "search.predict", "calls"))),
    ("search.predictions_per_op", "count", ("search.predict",),
     lambda t, items, ops: _get(t, "search.predict", "calls") / ops),
    ("search.useful_predictions_per_op", "count",
     ("search.predict", "reward.passes_hard_constraints"),
     lambda t, items, ops: _get(t, "search.predict", "extra") / ops),
    ("textify.self_ms_per_item", "ms/item", tuple(_layer_names("textify")),
     lambda t, items, ops: _ms(_self_ns(t, _layer_names("textify"))) / items),
    ("cli.self_ms_per_op", "ms/op", tuple(_layer_names("cli")),
     lambda t, items, ops: _ms(_self_ns(t, _layer_names("cli"))) / ops),
)


def per_layer_metrics(tracer: Tracer, items: int, ops: int,
                      speed: float) -> tuple[dict, list[str]]:
    """Metric name -> {value, unit}, plus the names that could not be computed.

    Times are multiplied by `speed`, the run's machine-speed scale factor.
    """
    totals = tracer.totals()
    metrics: dict[str, dict] = {}
    missing: list[str] = []
    for name, unit, needs, compute in PER_LAYER:
        if any(n in tracer.missing for n in needs):
            missing.append(name)
            continue
        value = float(compute(totals, items, ops))
        if unit.startswith("ms/"):
            value *= speed
        metrics[name] = {"value": value, "unit": unit}
    return metrics, missing
