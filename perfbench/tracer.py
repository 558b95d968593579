"""Traced execution of one benchmark command, and the per-layer metrics.

Child side (run as a script): wrap srgkit's layer boundaries, run one
command, write the trace as JSON.

    PYTHONPATH=src python3 perfbench/tracer.py TRACE.json cli table1
    PYTHONPATH=src python3 perfbench/tracer.py TRACE.json classes

Coarse calls record spans (name, parent, start, end) kept in memory until
the command ends.  Hot leaf calls only bump a count and a total time, so
the trace stays small and its overhead bounded.  A wrapped function is
replaced under every name it is bound to in the srgkit modules (for
example ``srgkit.families.build_graph`` as well as
``srgkit.graphcore.build_graph``); methods are replaced on their class.

Runner side (imported by ``run.py``): :func:`layer_metrics` turns one
trace into the per-layer metrics, and :data:`WRAPS` names the workloads on
which each wrapped name must be reached.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter

MODULES = ("gf", "geometry", "graphcore", "orbitals", "schemes", "families", "cli")

# (target, kind, trace name, workloads that must reach it).  A target is
# "module:function" or "module:Class.method".  "span" records a span, "leaf"
# only a count and total time; leaves sharing a trace name count once per
# outermost call (half_inner calls inner).
WRAPS = (
    ("gf:make_field", "span", "gf.make_field", ("table1", "verify", "classes")),
    ("geometry:enumerate_points", "span", "geometry.enumerate", ("table1", "classes")),
    ("geometry:enumerate_subspaces", "span", "geometry.enumerate", ("verify",)),
    ("geometry:enumerate_max_isotropic", "span", "geometry.enumerate", ("table1", "symbolic")),
    ("geometry:enumerate_flags", "span", "geometry.enumerate", ("table1", "classes")),
    ("geometry:line_tangency_count", "leaf", "geometry.tangency", ("table1",)),
    ("geometry:FormedSpace.inner", "leaf", "geometry.inner", ("table1", "classes")),
    ("geometry:FormedSpace.half_inner", "leaf", "geometry.inner", ("classes",)),
    ("graphcore:build_graph", "span", "graphcore.build_graph", ("table1",)),
    ("graphcore:check_srg", "span", "graphcore.check_srg", ("table1", "verify", "classes")),
    ("graphcore:check_drg", "span", "graphcore.check_drg", ("verify", "symbolic")),
    ("graphcore:distance_graph", "span", "graphcore.distance_graph", ("table1",)),
    ("graphcore:to_graph6", "span", "graphcore.graph6", ("verify",)),
    ("graphcore:from_graph6", "span", "graphcore.graph6", ("verify",)),
    ("orbitals:compute_orbitals", "span", "orbitals.compute", ("table1", "verify", "classes")),
    ("orbitals:orbital_graph", "span", "orbitals.orbital_graph", ("verify",)),
    ("orbitals:intersection_number_direct", "leaf", "orbitals.direct_count", ("classes",)),
    ("schemes:tensor_from_array", "span", "schemes.recursion", ("symbolic",)),
    ("schemes:symbolic_tensor_from_array", "span", "schemes.recursion", ("symbolic",)),
    ("schemes:IntersectionTensor.validate", "span", "schemes.validate", ("symbolic", "classes")),
    ("schemes:poly_gcd", "leaf", "schemes.poly_gcd", ("symbolic",)),
    ("schemes:RatFunc.__init__", "leaf", "schemes.ratfunc_new", ("symbolic",)),
    ("schemes:instantiate_tensor", "span", "schemes.instantiate", ("symbolic",)),
    ("schemes:tensor_from_graph", "span", "schemes.tensor_from_graph", ("symbolic",)),
    ("schemes:tensor_from_orbital_partition", "span", "schemes.orbital_tensor", ("classes",)),
    ("families:build_family", "span", "families.build", ("table1", "verify")),
    ("families:build_unitary_orbitals", "span", "families.build", ("classes",)),
    ("families:build_orthogonal_orbitals", "span", "families.build", ("classes",)),
    ("families:build_flag_orbitals", "span", "families.build", ("table1", "classes")),
    ("families:hamming_classification", "span", "families.build", ("classes",)),
    ("cli:main", "span", "cli.main", ("table1", "symbolic", "verify")),
)

# The adjacency predicate handed to build_graph is wrapped per call.
PREDICATE = "graphcore.predicate"


class Trace:
    """Spans and leaf totals of one process, plus work counts."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, parent index or None, start, end]
        self.stack: list[int] = []
        self.leaf_calls: dict[str, int] = {}
        self.leaf_seconds: dict[str, float] = {}
        self.leaf_depth: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self.reached: dict[str, int] = {}

    def add(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def span(self, fn, name: str, target: str):
        spans, stack, reached = self.spans, self.stack, self.reached

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            reached[target] += 1
            index = len(spans)
            spans.append([name, stack[-1] if stack else None, perf_counter(), None])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][3] = perf_counter()
            observe = _OBSERVERS.get(target)
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return wrapper

    def leaf(self, fn, name: str, target: str | None = None):
        calls, seconds, depth, reached = (
            self.leaf_calls, self.leaf_seconds, self.leaf_depth, self.reached
        )
        calls.setdefault(name, 0)
        seconds.setdefault(name, 0.0)
        depth.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if target is not None:
                reached[target] += 1
            if depth[name]:
                return fn(*args, **kwargs)
            depth[name] = 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[name] += perf_counter() - start
                calls[name] += 1
                depth[name] = 0

        return wrapper

    def to_json(self) -> dict:
        return {
            "spans": self.spans,
            "leaf_calls": self.leaf_calls,
            "leaf_seconds": self.leaf_seconds,
            "counts": self.counts,
            "reached": self.reached,
        }


# -- work counts taken from a wrapped call's arguments and result -----------


def _srg_pairs(trace, args, kwargs, result) -> None:
    n = args[0].n
    if hasattr(result, "as_tuple"):
        pairs = n * (n - 1) // 2
    elif result.witness is not None and "common neighbours" in result.reason:
        u, v = result.witness  # pairs (u', v') before it, then the witness
        pairs = u * (2 * n - u - 1) // 2 + (v - u)
    else:
        pairs = 0
    trace.add("graphcore.srg_pairs", pairs)


def _drg_roots(trace, args, kwargs, result) -> None:
    if hasattr(result, "b"):
        roots = args[0].n
    elif result.witness is None:
        roots = 0
    elif result.reason == "eccentricity varies":
        roots = result.witness[1] + 1
    else:
        roots = result.witness[0] + 1
    trace.add("graphcore.drg_roots", roots)


def _points(trace, args, kwargs, result) -> None:
    trace.add("geometry.points", len(result))


def _pairs_labelled(trace, args, kwargs, result) -> None:
    n = result.partition.degree
    trace.add("families.pairs_labelled", n * (n - 1))


_OBSERVERS = {
    "geometry:enumerate_points": _points,
    "geometry:enumerate_subspaces": _points,
    "geometry:enumerate_max_isotropic": _points,
    "geometry:enumerate_flags": _points,
    "graphcore:check_srg": _srg_pairs,
    "graphcore:check_drg": _drg_roots,
    "graphcore:to_graph6": lambda t, a, k, r: t.add("graphcore.graph6_bytes", len(r)),
    "graphcore:from_graph6": lambda t, a, k, r: t.add("graphcore.graph6_bytes", len(a[0])),
    "orbitals:compute_orbitals": lambda t, a, k, r: t.add("orbitals.pairs", r.degree**2),
    "schemes:IntersectionTensor.validate": lambda t, a, k, r: t.add("schemes.validate_calls", 1),
    "families:build_unitary_orbitals": _pairs_labelled,
    "families:build_orthogonal_orbitals": _pairs_labelled,
    "families:build_flag_orbitals": _pairs_labelled,
    "families:hamming_classification": _pairs_labelled,
}


def install(trace: Trace) -> None:
    """Wrap every target of :data:`WRAPS` wherever srgkit binds it.

    Raises LookupError when a target no longer exists, so a refactor that
    moves a function fails the traced run instead of reporting zero.
    """
    import srgkit

    modules = [srgkit] + [importlib.import_module(f"srgkit.{m}") for m in MODULES]
    for target, kind, name, _ in WRAPS:
        trace.reached[target] = 0
        module_name, _, attr = target.partition(":")
        owner = importlib.import_module(f"srgkit.{module_name}")
        if "." in attr:
            class_name, method = attr.split(".")
            owner = getattr(owner, class_name, None)
            attr = method
        original = getattr(owner, attr, None)
        if original is None:
            raise LookupError(f"trace target {target} not found")
        wrapper = (trace.span if kind == "span" else trace.leaf)(original, name, target)
        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
            continue
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)

    graphcore = sys.modules["srgkit.graphcore"]
    build_graph = graphcore.build_graph  # already the span wrapper

    @functools.wraps(build_graph)
    def build_graph_counted(vertices, adjacent, *args, **kwargs):
        return build_graph(vertices, trace.leaf(adjacent, PREDICATE), *args, **kwargs)

    for module in modules:
        if vars(module).get("build_graph") is build_graph:
            module.build_graph = build_graph_counted


# -- runner side: per-layer metrics from one trace ---------------------------

# metric -> (span name, "total" time of the outermost such spans, or "self" time)
SPAN_METRICS = {
    "gf.field_s": ("gf.make_field", "total"),
    "geometry.enumerate_s": ("geometry.enumerate", "total"),
    "graphcore.build_graph_s": ("graphcore.build_graph", "total"),
    "graphcore.check_srg_s": ("graphcore.check_srg", "total"),
    "graphcore.check_drg_s": ("graphcore.check_drg", "total"),
    "graphcore.distance_graph_s": ("graphcore.distance_graph", "total"),
    "graphcore.graph6_s": ("graphcore.graph6", "total"),
    "orbitals.compute_s": ("orbitals.compute", "total"),
    "orbitals.orbital_graph_s": ("orbitals.orbital_graph", "total"),
    "schemes.recursion_s": ("schemes.recursion", "self"),
    "schemes.validate_s": ("schemes.validate", "total"),
    "schemes.instantiate_s": ("schemes.instantiate", "total"),
    "schemes.tensor_from_graph_s": ("schemes.tensor_from_graph", "total"),
    "schemes.orbital_tensor_s": ("schemes.orbital_tensor", "total"),
    "families.build_self_s": ("families.build", "self"),
    "cli.self_s": ("cli.main", "self"),
}

# metric -> (leaf name, "calls" or "seconds")
LEAF_METRICS = {
    "geometry.tangency_calls": ("geometry.tangency", "calls"),
    "geometry.tangency_s": ("geometry.tangency", "seconds"),
    "geometry.inner_calls": ("geometry.inner", "calls"),
    "geometry.inner_s": ("geometry.inner", "seconds"),
    "graphcore.predicate_calls": (PREDICATE, "calls"),
    "orbitals.direct_count_calls": ("orbitals.direct_count", "calls"),
    "orbitals.direct_count_s": ("orbitals.direct_count", "seconds"),
    "schemes.poly_gcd_calls": ("schemes.poly_gcd", "calls"),
    "schemes.poly_gcd_s": ("schemes.poly_gcd", "seconds"),
    "schemes.ratfunc_new": ("schemes.ratfunc_new", "calls"),
}

# counts taken from call results (see _OBSERVERS), plus fields built
COUNT_METRICS = (
    "gf.fields_built",
    "geometry.points",
    "graphcore.srg_pairs",
    "graphcore.drg_roots",
    "graphcore.graph6_bytes",
    "orbitals.pairs",
    "schemes.validate_calls",
    "families.pairs_labelled",
)


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer metrics of one traced command, plus ``covered_s``: the
    time covered by its root spans."""
    spans = trace["spans"]
    child_time = [0.0] * len(spans)
    for name, parent, start, end in spans:
        if parent is not None:
            child_time[parent] += end - start

    def nested_in(index: int, name: str) -> bool:
        parent = spans[index][1]
        while parent is not None:
            if spans[parent][0] == name:
                return True
            parent = spans[parent][1]
        return False

    out: dict[str, float] = {}
    for metric, (name, mode) in SPAN_METRICS.items():
        total = 0.0
        for index, (span_name, parent, start, end) in enumerate(spans):
            if span_name != name:
                continue
            if mode == "self":
                total += end - start - child_time[index]
            elif not nested_in(index, name):
                total += end - start
        out[metric] = total
    for metric, (name, field) in LEAF_METRICS.items():
        source = trace["leaf_calls"] if field == "calls" else trace["leaf_seconds"]
        out[metric] = source.get(name, 0)
    for metric in COUNT_METRICS:
        out[metric] = trace["counts"].get(metric, 0)
    out["covered_s"] = sum(end - start for _, parent, start, end in spans if parent is None)
    return out


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] not in ("cli", "classes"):
        print(__doc__, file=sys.stderr)
        return 2
    out_path, kind, args = argv[0], argv[1], argv[2:]
    import srgkit.gf

    make_field = srgkit.gf.make_field  # the cached original, for its miss count
    trace = Trace()
    install(trace)
    try:
        if kind == "cli":
            import srgkit.cli

            code = srgkit.cli.main(args)
        else:
            import classes_job

            code = classes_job.main()
    finally:
        trace.counts["gf.fields_built"] = make_field.cache_info().misses
        with open(out_path, "w") as f:
            json.dump(trace.to_json(), f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
