#!/usr/bin/env python3
"""Seeded benchmark of raagbraid over three workloads: verify, embed, scale.

Run from the repository root:

    python3 bench/run.py --workload verify --seed 1 --seconds 30 --trace 0

Each workload runs closed loop with one client, in this one process, on
inputs built from ``--seed`` (see inputs.py). The run is a series of
sessions, started while at least half a session's time of ``--seconds`` is
left. A session imports raagbraid afresh and sets the workload up, SETUPS
times over (each import with its set-up is one set-up sample), then runs
every input once on the last set-up. Every output is checked.

A fixed reference loop is timed before the set-up and after every
operation, and each measured time is rescaled to the speed at which the
loop takes REFERENCE_S: seconds at a fixed machine speed. This cancels the
swings in speed of a shared machine, which otherwise move every timing of a
run by up to 1.6x. An input's time is the median of its rescaled times over
the sessions; set-up time is the median over all set-ups.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics named in
BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
The line before it is a ``report`` object with each input's size, time and
output digest, the sample counts behind the percentiles and, when traced,
the span table. bench/README.md explains every metric. The run exits
non-zero without a result when the program is missing, exits 2 or 4, or
raises.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
import tracemalloc
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import inputs
import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
MB = 2**20
#: Seconds the reference loop takes on an unloaded 2-vCPU Intel Xeon virtual
#: machine under CPython 3.11; every reported time is rescaled to that speed.
REFERENCE_S = 0.012


class BenchError(Exception):
    """The run cannot give a trustworthy result and stops without one."""


def check_checkout() -> dict:
    """BENCHMARK.json, and raagbraid's sources first on the import path."""
    spec_file = ROOT / "BENCHMARK.json"
    if not spec_file.is_file():
        raise BenchError("BENCHMARK.json is missing from this checkout")
    package = ROOT / "src" / "raagbraid"
    if not (package / "__init__.py").is_file():
        raise BenchError("src/raagbraid is missing from this checkout")
    sys.path.insert(0, str(package.parent))
    return json.loads(spec_file.read_text())


def import_program():
    """raagbraid and its CLI, imported afresh from this checkout's sources."""
    for name in [n for n in sys.modules if n == "raagbraid" or n.startswith("raagbraid.")]:
        del sys.modules[name]
    rb = importlib.import_module("raagbraid")
    importlib.import_module("raagbraid.cli")
    if Path(rb.__file__).resolve().parent != (ROOT / "src" / "raagbraid").resolve():
        raise BenchError(f"imported raagbraid from {rb.__file__}, not the checkout")
    return rb


@dataclass
class Op:
    input_id: str
    wall_s: float
    ok: bool  # False: the program gave up on a resource bound (exit 3)
    work: float  # units behind work_per_s; 0 when not ok
    output: bytes
    problems: list[str] = field(default_factory=list)
    counters: Counter = field(default_factory=Counter)
    speed: float = 1.0  # REFERENCE_S over the reference loop's time beside it

    @property
    def seconds(self) -> float:
        """Wall time rescaled to the reference speed."""
        return self.wall_s * self.speed


def reference_loop() -> int:
    """Fixed pure-Python work of the kind raagbraid does (tuples, dict
    updates, frozensets, a sort). It belongs to the benchmark, so a change
    to the program cannot change it."""
    rng = random.Random(7)
    table: dict = {}
    items = []
    for i in range(10000):
        key = (rng.randrange(500), i % 7)
        table[key] = table.get(key, ()) + (i,)
        items.append(frozenset((key[0], key[1], i & 15)))
    items.sort(key=len)
    return len(table)


def reference_s() -> float:
    """Wall time of one reference loop, after a full garbage collection."""
    gc.collect()
    start = time.perf_counter()
    reference_loop()
    return time.perf_counter() - start


def speed(before: float, after: float) -> float:
    """Factor that rescales a time taken between two reference loops."""
    return REFERENCE_S / ((before + after) / 2)


def exponent_sums(letters) -> dict[str, int]:
    """Nonzero signed exponent sums per generator."""
    sums: Counter = Counter()
    for g, s in letters:
        sums[g] += s
    return {g: s for g, s in sums.items() if s}


def describe(rb, graph, coloring) -> dict:
    """Sizes of one input along the pipeline."""
    base = rb.build_halo(graph, coloring)
    sub = rb.subdivided_halo(base, coloring.color_count)
    return {
        "delta_vertices": graph.n_vertices,
        "delta_edges": graph.n_edges,
        "colors": coloring.color_count,
        "halo_vertices": base.gamma.n_vertices,
        "halo_edges": base.gamma.n_edges,
        "subdivision_factor": sub.gamma.n_edges // base.gamma.n_edges,
        "edge_generators": sub.gamma.n_edges,
    }


def largest(graphs):
    """The (graph, colouring) pair with the most vertices, then edges: the
    input whose context build ``context.peak_alloc_mb`` measures."""
    return max(graphs, key=lambda pair: (pair[0].n_vertices, pair[0].n_edges))


class VerifyWorkload:
    """``raagbraid verify --max-len 4 --samples 500`` per graph, through the
    in-process CLI entry. Work unit: a graph verified."""

    def __init__(self, rb, seed: int, workdir: Path):
        self.rb, self.seed, self.workdir = rb, seed, workdir

    def setup(self):
        self.corpus = inputs.verify_corpus(self.seed)
        self.argv = []
        for item in self.corpus:
            graph_file = self.workdir / f"{item.id}.json"
            graph_file.write_text(json.dumps(
                {"vertices": list(item.vertices), "edges": [list(e) for e in item.edges]}
            ))
            argv = [
                "verify", "--input", str(graph_file), "--max-len", "4",
                "--samples", "500", "--seed", str(item.sample_seed),
            ]
            if item.coloring is not None:
                coloring_file = self.workdir / f"{item.id}.coloring.json"
                coloring_file.write_text(json.dumps({"assignment": item.coloring}))
                argv += ["--coloring", str(coloring_file)]
            self.argv.append(argv)

    def run_op(self, i: int) -> Op:
        item = self.corpus[i]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = self.rb.cli.main(self.argv[i])
            except SystemExit as exc:
                code = exc.code
            seconds = time.perf_counter() - start
        text, message = out.getvalue(), err.getvalue()
        if code == 0:
            if json.loads(text).get("pass") is not True:
                raise BenchError(f"verify {item.id}: exit 0 without \"pass\": true")
        elif code != 3:
            raise BenchError(f"verify {item.id}: exit {code}: {message.strip()}")
        output = f"exit {code}\n{text}{message}".encode()
        counters = Counter({f"cli.exit.{code}": 1, "cli.output_bytes": len(text.encode())})
        return Op(item.id, seconds, code == 0, float(code == 0), output, counters=counters)

    def graph(self, i: int):
        item = self.corpus[i]
        g = self.rb.SimpleGraph.make(item.vertices, item.edges)
        if item.coloring is None:
            return g, self.rb.greedy_color(g)
        return g, self.rb.Coloring.make(g, item.coloring)

    def sizes(self, i: int) -> dict:
        return describe(self.rb, *self.graph(i))

    def probe(self):
        return largest(self.graph(i) for i in range(len(self.corpus)))


class EmbedWorkload:
    """``phi_psi`` then ``raag_reduce`` per word over contexts built and
    warmed in set-up. Work unit: a source letter mapped."""

    def __init__(self, rb, seed: int, workdir: Path):
        self.rb, self.seed = rb, seed

    def setup(self):
        rb = self.rb
        self.contexts, self.letter_sums, self.graphs = {}, {}, {}
        for name in inputs.EMBED_GRAPHS:
            g = rb.SimpleGraph.make(*inputs.named_graph(name))
            coloring = rb.chromatic_number(g)
            ctx = rb.build_context(g, coloring)
            for v in g.vertices:
                for sign in (1, -1):
                    ctx.letter_image(v, sign, True)
            self.letter_sums[name] = {
                v: exponent_sums(ctx.letter_image(v, 1, True)) for v in g.vertices
            }
            self.contexts[name] = ctx
            self.graphs[name] = (g, coloring)
        self.corpus = inputs.embed_words(self.seed)
        self.words = [rb.GroupWord(w.letters) for w in self.corpus]

    def run_op(self, i: int) -> Op:
        item, word = self.corpus[i], self.words[i]
        ctx = self.contexts[item.graph]
        start = time.perf_counter()
        image = self.rb.phi_psi(word, ctx)
        reduced = self.rb.raag_reduce(image, ctx.a_gamma)
        seconds = time.perf_counter() - start
        problems = []
        if item.trivial and len(reduced):
            problems.append("trivial word: image does not reduce to empty")
        if not item.trivial and not len(reduced):
            problems.append("nontrivial word: image reduces to empty")
        expected: Counter = Counter()
        for g, s in item.letters:
            for e, n in self.letter_sums[item.graph][g].items():
                expected[e] += s * n
        if exponent_sums(image.letters) != {e: n for e, n in expected.items() if n}:
            problems.append("image exponent sums differ from the per-letter image sums")
        output = f"{len(image)}\n{reduced}\n".encode()
        return Op(item.id, seconds, True, float(len(word)), output, problems)

    def sizes(self, i: int) -> dict:
        item = self.corpus[i]
        return {
            "graph": item.graph, "trivial": item.trivial, "letters": len(item.letters),
            **describe(self.rb, *self.graphs[item.graph]),
        }

    def probe(self):
        return largest(self.graphs.values())


class ScaleWorkload:
    """``build_context`` then ``check_homomorphism`` per graph. Work unit:
    an edge generator of the subdivided halo, built and checked."""

    def __init__(self, rb, seed: int, workdir: Path):
        self.rb, self.seed = rb, seed

    def setup(self):
        self.corpus = inputs.scale_corpus(self.seed)
        self.graphs = []
        for item in self.corpus:
            g = self.rb.SimpleGraph.make(item.vertices, item.edges)
            self.graphs.append((g, self.rb.Coloring.make(g, item.coloring)))

    def run_op(self, i: int) -> Op:
        g, coloring = self.graphs[i]
        start = time.perf_counter()
        ctx = self.rb.build_context(g, coloring)
        report = self.rb.check_homomorphism(ctx)
        seconds = time.perf_counter() - start
        generators = ctx.halo.gamma.n_edges
        del ctx  # keep one context alive at a time
        problems = [] if report.ok else ["check_homomorphism(...).ok is false"]
        output = self.rb.graphs.dumps_canonical(report.to_json_dict()).encode()
        return Op(self.corpus[i].id, seconds, True, float(generators), output, problems)

    def sizes(self, i: int) -> dict:
        return describe(self.rb, *self.graphs[i])

    def probe(self):
        return largest(self.graphs)


WORKLOADS = {"verify": VerifyWorkload, "embed": EmbedWorkload, "scale": ScaleWorkload}


#: set-ups per untraced session; only the last one's workload runs
SETUPS = 3


@dataclass
class Session:
    setups: list[tuple[float, float]]  # (wall seconds, speed) per import plus set-up
    ops: list[Op]
    workload: object  # None once a later session has started

    @property
    def setup_s(self) -> list[float]:
        return [wall * factor for wall, factor in self.setups]


def run_session(name: str, seed: int, workdir: Path, tracer=None) -> Session:
    """Import and set up SETUPS times (once when traced), then run every
    input once on the last set-up, with a reference loop beside each step;
    traced when ``tracer`` is given (import excluded)."""
    setups, workload = [], None
    with contextlib.ExitStack() as stack:
        for _ in range(1 if tracer else SETUPS):
            workload = None  # freed before the next set-up, so memory peaks once
            before = reference_s()
            start = time.perf_counter()
            rb = import_program()
            if tracer:
                stack.enter_context(tracing.installed(tracer, rb))
            workload = WORKLOADS[name](rb, seed, workdir)
            workload.setup()
            wall = time.perf_counter() - start
            after = reference_s()
            setups.append((wall, speed(before, after)))
        ops = []
        for i in range(len(workload.corpus)):
            # Each operation then pays only for the garbage it makes itself,
            # whatever ran before it.
            gc.collect()
            op = workload.run_op(i)
            before, after = after, reference_s()
            op.speed = speed(before, after)
            ops.append(op)
    return Session(setups, ops, workload)


def run_sessions(name: str, seed: int, workdir: Path, seconds: float) -> list[Session]:
    """Sessions while more than half a mean session's time is left."""
    sessions: list[Session] = []
    start = time.perf_counter()
    while True:
        if sessions:
            sessions[-1].workload = None  # peak memory then holds one session
        sessions.append(run_session(name, seed, workdir))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(sessions) / 2 >= seconds:
            return sessions


def percentile(values, q: float) -> float:
    """Linear interpolation between the closest ranks. A failed operation
    enters as +inf, so fixing a failure can never raise a percentile."""
    ordered = sorted(values)
    low, frac = divmod((len(ordered) - 1) * q / 100, 1)
    low = int(low)
    if frac == 0:
        return ordered[low]
    if math.isinf(ordered[low + 1]):
        return math.inf
    return ordered[low] + (ordered[low + 1] - ordered[low]) * frac


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def per_input(sessions: list[Session]) -> dict[str, dict]:
    """Per input, in corpus order: median rescaled and wall seconds over the
    sessions, work, and whether every run of it succeeded."""
    runs: dict[str, list[Op]] = {}
    for session in sessions:
        for op in session.ops:
            runs.setdefault(op.input_id, []).append(op)
    return {
        input_id: {
            "s": statistics.median(op.seconds for op in ops),
            "wall_s": statistics.median(op.wall_s for op in ops),
            "ok": all(op.ok for op in ops),
            "work": ops[0].work,
        }
        for input_id, ops in runs.items()
    }


def end_to_end(sessions: list[Session], rss_mb: float) -> dict[str, float]:
    inputs_ = per_input(sessions).values()
    times = [e["s"] if e["ok"] else math.inf for e in inputs_]
    return {
        "p50_s": percentile(times, 50),
        "p90_s": percentile(times, 90),
        "work_per_s": sum(e["work"] for e in inputs_ if e["ok"]) / sum(e["s"] for e in inputs_),
        "peak_rss_mb": rss_mb,
        "setup_s": statistics.median(t for s in sessions for t in s.setup_s),
    }


def peak_alloc_mb(rb, graph, coloring) -> float:
    """Peak Python allocation of one context build, under tracemalloc."""
    gc.collect()
    tracemalloc.start()
    try:
        ctx = rb.build_context(graph, coloring)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    del ctx
    return peak / MB


def summarize(sessions: list[Session]) -> tuple[dict, list[str]]:
    """Per-input runs, failures, time, output digest and sizes in corpus
    order, plus every problem found in the outputs."""
    workload = sessions[-1].workload
    index = {item.id: i for i, item in enumerate(workload.corpus)}
    entries: dict[str, dict] = {}
    problems: list[str] = []
    for op in (op for s in sessions for op in s.ops):
        digest = hashlib.sha256(op.output).hexdigest()
        entry = entries.setdefault(
            op.input_id, {"id": op.input_id, "runs": 0, "failed": 0, "digest": digest}
        )
        if entry["digest"] != digest:
            problems.append(f"{op.input_id}: output differs between runs")
        entry["runs"] += 1
        entry["failed"] += not op.ok
        problems.extend(f"{op.input_id}: {p}" for p in op.problems)
    for input_id, timing in per_input(sessions).items():
        entries[input_id]["s"] = timing["s"]
        entries[input_id]["wall_s"] = timing["wall_s"]
        entries[input_id].update(workload.sizes(index[input_id]))
    combined = hashlib.sha256(
        "".join(f"{k} {v['digest']}\n" for k, v in entries.items()).encode()
    ).hexdigest()
    n = len(entries)
    report = {
        "sessions": len(sessions),
        "setup_s": [t for s in sessions for t in s.setup_s],
        "setup_wall_s": [wall for s in sessions for wall, _ in s.setups],
        "failed_inputs": sorted({op.input_id for s in sessions for op in s.ops if not op.ok}),
        "percentiles": {
            f"p{q}": {"samples": n, "beyond": n - 1 - int((n - 1) * q / 100)}
            for q in (50, 90)
        },
        "digest": combined,
        "inputs": list(entries.values()),
    }
    return report, problems


def run(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One benchmark run; returns the report and the result object."""
    spec = check_checkout()
    import_program()  # compiles and loads dependencies; sessions time re-imports
    workdir = Path(tempfile.mkdtemp(prefix="_work-", dir=BENCH_DIR))
    try:
        report = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace)}
        if not trace:
            sessions = run_sessions(name, seed, workdir, seconds)
            values = end_to_end(sessions, peak_rss_mb())
            counted = [op for s in sessions for op in s.ops]
            spec_metrics = spec["end_to_end"]
        else:
            # Untraced sessions for half the time, then one traced session.
            # The traced session against the last untraced one, each a
            # single pass, gives the tracing overhead.
            untraced = run_sessions(name, seed, workdir, seconds / 2)
            plain = end_to_end(untraced[-1:], peak_rss_mb())
            untraced[-1].workload = None
            tracer = tracing.Tracer()
            traced_session = run_session(name, seed, workdir, tracer)
            traced = end_to_end([traced_session], peak_rss_mb())
            sessions = untraced + [traced_session]
            counted = traced_session.ops
            values = tracing.layer_metrics(tracer)
            cli = sum((op.counters for op in counted), Counter())
            for key in ("cli.exit.0", "cli.exit.3", "cli.output_bytes"):
                values[key] = cli[key]
            rb = traced_session.workload.rb
            values["context.peak_alloc_mb"] = peak_alloc_mb(rb, *traced_session.workload.probe())
            for key in plain:
                values[f"tracing.overhead.{key}"] = traced[key] - plain[key]
            report.update(untraced_end_to_end=plain, traced_end_to_end=traced,
                          missing_wrappers=tracer.missing, spans=tracer.spans())
            spec_metrics = spec["per_layer"]
        summary, problems = summarize(sessions)
        report.update(summary, problems=problems)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    missing = [m["name"] for m in spec_metrics if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics named in BENCHMARK.json but not computed: {missing}")
    metrics = {}
    for m in spec_metrics:
        value = values[m["name"]]
        metrics[m["name"]] = {"value": value if math.isfinite(value) else None, "unit": m["unit"]}
    result = {
        "correct": not problems,
        "attempted": len(counted),
        "failed": sum(not op.ok for op in counted),
        "metrics": metrics,
    }
    return report, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        report, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
