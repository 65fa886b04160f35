"""Span tracing of symmon's layers, installed from outside the package.

`Tracer.installed()` replaces module functions and class methods with
wrappers for the duration of a `with` block and restores the originals on
exit; no file under `src/` knows about it.  Every call of a wrapped boundary
function becomes a span (name, start, end, parent, job id).  Leaf kernels
called hundreds of thousands of times per pass are not given spans: their
calls, time and self time are summed on the nearest enclosing span, so memory
stays bounded by the number of boundary calls.

Self time is a call's duration minus the time covered by the calls it makes
into other wrapped functions, spans and leaves alike.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import math
import re
import time

clock = time.perf_counter

# every wrapped boundary function, by module path; also its metric prefix
SPANS = (
    "cli.main",
    "finite_field.orbit_enumerate",
    "finite_field.bruhat_factor",
    "orbits.twisted_orbit_census",
    "orbits.rank_control",
    "orbits.invariant_to_partial_involution",
    "root_weight.weyl_orbit",
    "root_weight.weight_set",
    "root_weight.dominant_weights_below",
    "involution.check_weight_set_stability",
    "rook.hasse_edges",
    "rook.poset_to_json",
    "polytope.hull",
    "polytope.f_vector",
    "polytope.to_off",
)

# leaf kernels, aggregated per enclosing span: (metric prefix, module path)
LEAVES = (
    ("finite_field.matmul", "finite_field.FqMatrix.__matmul__"),
    ("finite_field.fqmatrix_new", "finite_field.FqMatrix.__post_init__"),
    ("finite_field.inverse", "finite_field.FqMatrix.inverse"),
    ("root_weight.reflect", "root_weight.reflect"),
    ("involution.apply_star", "involution.InvolutionSpec.apply_star"),
    ("linalg.dot", "linalg.dot"),
    ("rook.bruhat_leq", "rook.bruhat_leq"),
)


class Span:
    __slots__ = ("id", "parent", "job", "name", "start", "end", "child", "attrs", "leaves")

    def __init__(self, sid, parent, job, name, start):
        self.id, self.parent, self.job, self.name = sid, parent, job, name
        self.start, self.end, self.child = start, start, 0.0
        self.attrs: dict = {}
        # leaf name -> [calls, total seconds, self seconds]
        self.leaves: dict = {}

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "parent": self.parent,
            "job": self.job,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "self": self.self_s,
            "attrs": self.attrs,
            "leaves": self.leaves,
        }


class _Leaf:
    """Open frame of a leaf call: only the time its own nested calls cover."""

    __slots__ = ("child",)

    def __init__(self):
        self.child = 0.0


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list = []  # open Span and _Leaf frames, innermost last
        self.span_stack: list[Span] = []
        self.job = None

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> Span:
        parent = self.span_stack[-1].id if self.span_stack else None
        span = Span(len(self.spans), parent, self.job, name, clock())
        self.spans.append(span)
        self.stack.append(span)
        self.span_stack.append(span)
        return span

    def close(self, span: Span):
        span.end = clock()
        self.stack.pop()
        self.span_stack.pop()
        if self.stack:
            self.stack[-1].child += span.end - span.start

    @contextlib.contextmanager
    def job_span(self, job_id, name: str):
        """Root span of one benchmark job; every span inside shares its id."""
        self.job = job_id
        span = self.open("job")
        span.attrs["job"] = name
        try:
            yield span
        finally:
            self.close(span)
            self.job = None

    def _span_wrapper(self, name, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if after is not None:
                after(span, args, kwargs, result)
            return result

        return wrapper

    def _leaf_wrapper(self, name, fn):
        stack, span_stack = self.stack, self.span_stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = _Leaf()
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1].child += dt
                if span_stack:
                    agg = span_stack[-1].leaves.get(name)
                    if agg is None:
                        agg = span_stack[-1].leaves[name] = [0, 0.0, 0.0]
                    agg[0] += 1
                    agg[1] += dt
                    agg[2] += dt - frame.child

        return wrapper

    # -- installation ------------------------------------------------------

    def _orbit_enumerate(self, fn):
        """orbit_enumerate as a span that also counts generator applications."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(act, space, generators, *args, **kwargs):
            applications = 0

            def counted(g, x):
                nonlocal applications
                applications += 1
                return act(g, x)

            span = tracer.open("finite_field.orbit_enumerate")
            try:
                result = fn(counted, space, generators, *args, **kwargs)
            finally:
                tracer.close(span)
            span.attrs["applications"] = applications
            span.attrs["orbits"] = len(result)
            span.attrs["points"] = sum(len(o) for o in result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced function of the imported symmon package."""
        after = {
            "root_weight.weyl_orbit": _len_attr("size"),
            "root_weight.weight_set": _len_attr("points"),
            "rook.hasse_edges": _len_attr("edges"),
            "polytope.hull": _hull_counts,
        }
        saved = []

        def patch(owner, attr, new):
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, new)

        def resolve(path):
            mod, *rest = path.split(".")
            owner = importlib.import_module(f"symmon.{mod}")
            for part in rest[:-1]:
                owner = getattr(owner, part)
            return owner, rest[-1]

        try:
            for name in SPANS:
                owner, attr = resolve(name)
                fn = owner.__dict__[attr]
                if name == "finite_field.orbit_enumerate":
                    patch(owner, attr, self._orbit_enumerate(fn))
                else:
                    patch(owner, attr, self._span_wrapper(name, fn, after.get(name)))
            for name, path in LEAVES:
                owner, attr = resolve(path)
                patch(owner, attr, self._leaf_wrapper(name, owner.__dict__[attr]))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write(self, fh, **context):
        """One JSON object per span, each tagged with context."""
        for span in self.spans:
            fh.write(json.dumps({**context, **span.to_json()}) + "\n")


def _len_attr(key):
    def after(span, args, kwargs, result):
        span.attrs[key] = len(result)

    return after


def _hull_counts(span, args, kwargs, result):
    points = args[0] if args else kwargs["points"]
    n = len({w.coords if hasattr(w, "coords") else tuple(w) for w in points})
    span.attrs["points"] = n
    span.attrs["subsets"] = math.comb(n, result.affine_dim)
    span.attrs["facets"] = len(result.facets)


def layer_metrics(spans) -> dict[str, float]:
    """The per-layer metrics of one traced pass, from its spans."""
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    attrs: dict[str, float] = {}
    inclusive: dict[str, float] = {}
    reflect_in_orbit = 0
    leq_in_hasse = 0
    for span in spans:
        calls[span.name] = calls.get(span.name, 0) + 1
        self_s[span.name] = self_s.get(span.name, 0.0) + span.self_s
        inclusive[span.name] = inclusive.get(span.name, 0.0) + span.end - span.start
        for key, value in span.attrs.items():
            if isinstance(value, (int, float)):
                k = f"{span.name}.{key}"
                attrs[k] = attrs.get(k, 0) + value
        for leaf, (n, _total, own) in span.leaves.items():
            calls[leaf] = calls.get(leaf, 0) + n
            self_s[leaf] = self_s.get(leaf, 0.0) + own
        if span.name == "root_weight.weyl_orbit":
            reflect_in_orbit += span.leaves.get("root_weight.reflect", (0,))[0]
        if span.name == "rook.hasse_edges":
            leq_in_hasse += span.leaves.get("rook.bruhat_leq", (0,))[0]
        criterion = re.match(r"criterion (\d+) ", span.attrs.get("job", ""))
        if span.name == "job" and criterion:
            k = f"verify.criterion_{criterion[1]}"
            inclusive[k] = inclusive.get(k, 0.0) + span.end - span.start

    def ratio(a, b):
        return a / b if b else 0.0

    out: dict[str, float] = {}
    for name in SPANS + tuple(leaf for leaf, _ in LEAVES):
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
    for key in (
        "finite_field.orbit_enumerate.points",
        "finite_field.orbit_enumerate.applications",
        "finite_field.orbit_enumerate.orbits",
        "root_weight.weight_set.points",
        "rook.hasse_edges.edges",
        "polytope.hull.points",
        "polytope.hull.subsets",
        "polytope.hull.facets",
    ):
        out[key] = attrs.get(key, 0)
    oe = "finite_field.orbit_enumerate"
    out[f"{oe}.new_ratio"] = ratio(
        out[f"{oe}.points"] - out[f"{oe}.orbits"], out[f"{oe}.applications"]
    )
    # an orbit of size s is reached from its start point by s - 1 new images
    wo = "root_weight.weyl_orbit"
    out[f"{wo}.new_ratio"] = ratio(attrs.get(f"{wo}.size", 0) - calls.get(wo, 0), reflect_in_orbit)
    out["rook.hasse_edges.cover_ratio"] = ratio(out["rook.hasse_edges.edges"], leq_in_hasse)
    out["polytope.hull.facet_ratio"] = ratio(out["polytope.hull.facets"], out["polytope.hull.subsets"])
    for i in range(1, 11):
        out[f"verify.criterion_{i}.s"] = inclusive.get(f"verify.criterion_{i}", 0.0)
    return out
