"""Per-layer tracing of raagbraid from outside the package.

``installed(tracer, rb)`` wraps the layer-boundary functions and methods of
the loaded package and restores them on exit. A function is replaced under
every name that refers to it in any ``raagbraid`` module, so a call is
traced whichever module looks the name up (``embedding.concat_paths`` as
well as ``configspace.concat_paths``). A name that no longer exists is
skipped and listed in ``Tracer.missing``; its metrics then read 0.

Spans are aggregated in memory as they close, keyed by (parent span, span):
calls, inclusive seconds, self seconds (minus traced children) and calls
that raised. Counters that need the arguments or the result are kept by
small hooks at the same boundaries.
"""
from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
import weakref
from collections import Counter


class Tracer:
    """Span aggregates and boundary counters of one traced session."""

    def __init__(self):
        self.stack: list[list] = []  # open spans: [name, seconds of traced children]
        self.depth: Counter = Counter()  # open spans per name
        self.edges: dict[tuple[str | None, str], list] = {}  # -> [calls, s, self_s, raised]
        self.counts: Counter = Counter()
        # presentation -> "source" (A(Delta)) or "target" (the edge group)
        self.roles: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self.missing: list[str] = []

    def wrap(self, name: str, fn, after=None):
        """``fn`` recording a span ``name``; ``after(args, kwargs, result,
        seconds)`` runs when it returns normally."""
        stack, depth, edges, clock = self.stack, self.depth, self.edges, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            depth[name] += 1
            raised = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                seconds = clock() - start
                stack.pop()
                depth[name] -= 1
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += seconds
                key = (parent[0] if parent else None, name)
                rec = edges.get(key)
                if rec is None:
                    rec = edges[key] = [0, 0.0, 0.0, 0]
                rec[0] += 1
                rec[1] += seconds
                rec[2] += seconds - frame[1]
                rec[3] += raised
            if after is not None:
                after(args, kwargs, result, seconds)
            return result

        return traced

    def total(self, name: str) -> tuple[int, float, int]:
        """Calls, inclusive seconds and raising calls of one span name."""
        calls = seconds = raised = 0
        for (_, n), rec in self.edges.items():
            if n == name:
                calls += rec[0]
                seconds += rec[1]
                raised += rec[3]
        return calls, seconds, raised

    def spans(self) -> list[dict]:
        return [
            {"parent": p, "name": n, "calls": r[0], "s": r[1], "self_s": r[2], "raised": r[3]}
            for (p, n), r in sorted(self.edges.items(), key=lambda kv: -kv[1][1])
        ]


def _walks(k: int, max_len: int) -> int:
    """Freely reduced words of length 1..max_len over k generators."""
    return sum(2 * k * (2 * k - 1) ** (length - 1) for length in range(1, max_len + 1))


def _hooks(tracer: Tracer, rb):
    counts, depth, roles = tracer.counts, tracer.depth, tracer.roles

    def after_context(args, kwargs, result, seconds):
        ctx = args[0]
        for attr, role in (("source_group", "source"), ("a_gamma", "target")):
            if getattr(ctx, attr, None) is not None:
                roles[getattr(ctx, attr)] = role
        gamma = ctx.halo.gamma
        e = gamma.n_edges
        noncommuting = sum(
            len(ns) * (len(ns) - 1) // 2 for ns in gamma.adjacency.values()
        )
        counts["context.count"] += 1
        counts["context.edge_generators"] += e
        counts["context.noncommuting_pairs"] += noncommuting
        counts["context.commuting_pairs"] += e * (e - 1) // 2 - noncommuting

    def after_subdivided(args, kwargs, result, seconds):
        counts["halo.count"] += 1
        counts["halo.gamma_vertices"] += result.gamma.n_vertices
        counts["halo.gamma_edges"] += result.gamma.n_edges
        counts["halo.subdivision_factor"] += result.gamma.n_edges / args[0].gamma.n_edges

    def after_reduce(args, kwargs, result, seconds):
        counts["raag.reduce.letters_in"] += len(args[1])
        counts["raag.reduce.letters_out"] += len(result)
        if depth["injectivity"] and roles.get(args[0]) == "source":
            counts["injectivity.enum_s"] += seconds
            if not depth["injectivity.enumerate"]:
                counts["injectivity.sample_attempts"] += 1

    def after_is_trivial(args, kwargs, result, seconds):
        if depth["injectivity"] and roles.get(args[0]) == "target":
            counts["injectivity.image_s"] += seconds

    def after_configurations(args, kwargs, result, seconds):
        if depth["psi"]:
            counts["psi.replayed"] += len(result) - 1

    def after_injectivity(args, kwargs, result, seconds):
        bound = inspect.signature(rb.embedding.injectivity_spot_check).bind(*args, **kwargs)
        bound.apply_defaults()
        k = len(bound.arguments["ctx"].source_group.generators)
        counts["injectivity.words_walked"] += _walks(k, bound.arguments["max_len"])
        counts["injectivity.elements"] += result.exhaustive_elements
        counts["injectivity.samples_accepted"] += result.sample_count

    def after_suite(args, kwargs, result, seconds):
        for check in result.checks:
            counts[f"verify_suite.check_s.{check.name}"] += check.seconds

    def after_psi(args, kwargs, result, seconds):
        counts["psi.steps"] += len(result.steps)

    def after_phi(args, kwargs, result, seconds):
        counts["phi.letters"] += len(result)

    functions = [
        (rb.graphs, "is_sufficiently_subdivided", "graphs.is_sufficiently_subdivided", None),
        (rb.graphs, "is_planar", "graphs.is_planar", None),
        (rb.graphs, "greedy_color", "graphs.greedy_color", None),
        (rb.halo, "build_halo", "halo.build_halo", None),
        (rb.halo, "verify_halo", "halo.verify_halo", None),
        (rb.halo, "subdivided_halo", "halo.subdivided_halo", after_subdivided),
        (rb.configspace, "artin_loop_path", "configspace.artin_loop_path", None),
        (rb.configspace, "concat_paths", "configspace.concat_paths", None),
        (rb.embedding, "psi", "psi", after_psi),
        (rb.embedding, "phi", "phi", after_phi),
        (rb.embedding, "check_homomorphism", "homomorphism", None),
        (rb.embedding, "counterexample_report", "counterexample", None),
        (rb.embedding, "injectivity_spot_check", "injectivity", after_injectivity),
        (rb.embedding, "_nontrivial_elements", "injectivity.enumerate", None),
        (rb.embedding, "verify_suite", "verify_suite", after_suite),
    ]
    methods = [
        (rb.raag.RaagPresentation, "reduce_letters", "raag.reduce", after_reduce),
        (rb.raag.RaagPresentation, "is_trivial_letters", "raag.is_trivial", after_is_trivial),
        (rb.configspace.ConfigEdgePath, "configurations", "configspace.configurations",
         after_configurations),
        (rb.embedding.EmbeddingContext, "__init__", "context.build", after_context),
        (rb.embedding.EmbeddingContext, "loop_path", "context.loop_path", None),
    ]
    return functions, methods


@contextlib.contextmanager
def installed(tracer: Tracer, rb):
    """Trace the loaded ``raagbraid`` package for the duration of the block."""
    functions, methods = _hooks(tracer, rb)
    modules = [
        mod for name, mod in list(sys.modules.items())
        if name == "raagbraid" or name.startswith("raagbraid.")
    ]
    undo = []
    for home, attr, name, after in functions:
        original = getattr(home, attr, None)
        if original is None:
            tracer.missing.append(f"{home.__name__}.{attr}")
            continue
        wrapped = tracer.wrap(name, original, after)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                    undo.append((mod, key, original))
    for cls, attr, name, after in methods:
        original = cls.__dict__.get(attr)
        if original is None:
            tracer.missing.append(f"{cls.__qualname__}.{attr}")
            continue
        setattr(cls, attr, tracer.wrap(name, original, after))
        undo.append((cls, attr, original))
    try:
        yield tracer
    finally:
        for target, key, original in reversed(undo):
            setattr(target, key, original)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics from the aggregated spans and counters. Sizes are
    means per context or subdivided halo built; ratios with a zero base
    read 0."""
    c = tracer.counts
    out: dict[str, float] = {}

    def ratio(a, b):
        return a / b if b else 0.0

    for span, prefix in (
        ("injectivity", "injectivity"),
        ("psi", "psi"),
        ("phi", "phi"),
        ("raag.reduce", "raag.reduce"),
        ("raag.is_trivial", "raag.is_trivial"),
        ("configspace.artin_loop_path", "configspace.artin_loop_path"),
        ("graphs.is_sufficiently_subdivided", "graphs.is_sufficiently_subdivided"),
        ("halo.verify_halo", "halo.verify_halo"),
    ):
        calls, seconds, _ = tracer.total(span)
        out[f"{prefix}.calls"] = calls
        out[f"{prefix}.s"] = seconds
    for span in (
        "configspace.concat_paths", "context.build", "graphs.greedy_color",
        "halo.build_halo", "halo.subdivided_halo", "homomorphism", "counterexample",
    ):
        out[f"{span}.s"] = tracer.total(span)[1]
    planar_calls, _, planar_raised = tracer.total("graphs.is_planar")
    out["graphs.is_planar.calls"] = planar_calls
    out["graphs.is_planar.failed"] = planar_raised
    out["configspace.configurations.calls"] = tracer.total("configspace.configurations")[0]

    for key in (
        "injectivity.elements", "injectivity.words_walked", "injectivity.enum_s",
        "injectivity.image_s", "injectivity.sample_attempts", "injectivity.samples_accepted",
        "psi.steps", "phi.letters", "raag.reduce.letters_in", "raag.reduce.letters_out",
    ):
        out[key] = c[key]
    out["injectivity.useful_ratio"] = ratio(c["injectivity.elements"], c["injectivity.words_walked"])
    out["psi.replay_per_step"] = ratio(c["psi.replayed"], c["psi.steps"])
    loop_calls = tracer.total("context.loop_path")[0]
    out["context.loop_path.hit_ratio"] = ratio(
        loop_calls - out["configspace.artin_loop_path.calls"], loop_calls
    )
    for key in ("edge_generators", "commuting_pairs", "noncommuting_pairs"):
        out[f"context.{key}"] = ratio(c[f"context.{key}"], c["context.count"])
    for key in ("gamma_vertices", "gamma_edges", "subdivision_factor"):
        out[f"halo.{key}"] = ratio(c[f"halo.{key}"], c["halo.count"])
    for check in SUITE_CHECKS:
        out[f"verify_suite.check_s.{check}"] = c[f"verify_suite.check_s.{check}"]
    return out


#: check names of ``verify_suite`` reports
SUITE_CHECKS = (
    "halo-axioms", "subdivision", "homomorphism", "injectivity-spot-check",
    "squaring-counterexample",
)
