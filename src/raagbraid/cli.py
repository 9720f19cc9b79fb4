"""Command-line front end.

Exit codes: 0 success, 2 input error, 3 resource bound exceeded, 4
verification failure. Outputs are deterministic: identical inputs and seed
produce byte-identical JSON. Each sub-command offers only the output
formats it writes, so an unoffered one is a usage error (exit 2).

The argument parser is built on the first ``main`` call and reused by every
later call in the process (``build_parser`` is cached). Reuse is safe:
``parse_args`` returns a fresh namespace, every default is immutable, and a
usage error exits through ``SystemExit`` without changing the parser.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys

from . import configspace, embedding, graphs, halo as halo_mod
from .errors import InputError, SizeExceededError, VerificationError
from .graphs import Coloring, SimpleGraph
from .raag import GroupWord, is_trivial

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_RESOURCE = 3
EXIT_VERIFY = 4


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text: {exc}") from exc


def _load_json(path: str):
    text = _read_text(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON: {exc}") from exc
    except RecursionError:
        raise InputError(f"{path}: JSON nested too deep to read") from None


def _load_graph(path: str) -> SimpleGraph:
    return graphs.graph_from_json_dict(_load_json(path))


def _resolve_coloring(args, graph: SimpleGraph) -> Coloring:
    """The coloring ``--coloring`` names, else the exact one with
    ``--exact``, else the greedy one."""
    if getattr(args, "coloring", None):
        return graphs.coloring_from_json_dict(graph, _load_json(args.coloring))
    if getattr(args, "exact", False):
        return graphs.chromatic_number(graph)
    return graphs.greedy_color(graph)


def _emit(args, payload, text, dot=None) -> None:
    """Write the output ``--format`` asks for. Each argument is a function
    that builds one format, and only the one asked for is called:
    ``payload`` the object written as JSON, ``text`` the text, and ``dot``
    the DOT drawing for the sub-commands that offer it."""
    if args.format == "json":
        out = graphs.dumps_canonical(payload())
    elif args.format == "dot":
        out = dot()
    else:
        out = text()
    sys.stdout.write(out)


def cmd_color(args) -> int:
    g = _load_graph(args.input)
    coloring = _resolve_coloring(args, g)
    _emit(
        args,
        coloring.to_json_dict,
        text=lambda: "".join(f"{v} {c}\n" for v, c in coloring.assignment),
        dot=lambda: graphs.to_dot(g, coloring),
    )
    return EXIT_OK


def cmd_halo(args) -> int:
    g = _load_graph(args.input)
    coloring = _resolve_coloring(args, g)
    built = halo_mod.build_halo(g, coloring)
    sub = halo_mod.subdivided_halo(built, coloring.color_count, args.path_threshold)
    report = halo_mod.verify_halo(sub)
    # subdividing never changes planarity; the unsubdivided halo is smaller,
    # and it is the one verify_suite tests
    planar = graphs.is_planar(built.gamma)

    def payload():
        return {
            "halo": halo_mod.halo_to_json_dict(sub),
            "report": report.to_json_dict(),
            "planar": planar,
            "path_threshold": args.path_threshold,
        }

    def text():
        return (
            f"loops: {len(sub.artin_loops)}\n"
            f"gamma vertices: {sub.gamma.n_vertices}\n"
            f"gamma edges: {sub.gamma.n_edges}\n"
            f"planar: {str(planar).lower()}\n"
            f"verified: {str(report.ok).lower()}\n"
        )

    _emit(args, payload, text=text, dot=lambda: halo_mod.halo_to_dot(sub))
    return EXIT_OK if report.ok else EXIT_VERIFY


def cmd_configspace(args) -> int:
    g = _load_graph(args.input)
    zero, one = configspace.cell_counts(g, args.n)
    payload = {"n": args.n, "zero_cells": zero, "one_cells": one}
    _emit(
        args,
        lambda: payload,
        text=lambda: "".join(f"{key}: {value}\n" for key, value in payload.items()),
    )
    return EXIT_OK


def cmd_embed(args) -> int:
    g = _load_graph(args.input)
    word = GroupWord.parse(args.word)
    coloring = _resolve_coloring(args, g)
    ctx = embedding.build_context(g, coloring, args.path_threshold)
    squared = not args.unsquared
    image = embedding.phi_psi(word, ctx, squared=squared)
    trivial = is_trivial(image, ctx.a_gamma)

    def payload():
        return {
            "word": str(word),
            "squared": squared,
            "image": str(image),
            "image_length": len(image),
            "trivial": trivial,
        }

    def text():
        return (
            f"word: {word}\n"
            f"squared: {str(squared).lower()}\n"
            f"image_length: {len(image)}\n"
            f"trivial: {str(trivial).lower()}\n"
        )

    _emit(args, payload, text=text)
    return EXIT_OK


def cmd_verify(args) -> int:
    data = _load_json(args.input)
    if isinstance(data, dict) and "loops" in data:
        for flag, value in (("--coloring", args.coloring), ("--exact", args.exact)):
            if value:
                raise InputError(
                    f"{flag} does not apply to a halo file, which carries its coloring"
                )
        given = halo_mod.halo_from_json_dict(data)
        delta, coloring, halo = given.delta, given.coloring, given
    else:
        delta = graphs.graph_from_json_dict(data)
        # before --exact's search, which may take the whole budget
        embedding.check_spot_check_args(args.max_len, args.samples, args.seed)
        coloring = _resolve_coloring(args, delta)
        halo = None
    report = embedding.verify_suite(
        delta,
        coloring,
        max_len=args.max_len,
        sample_count=args.samples,
        seed=args.seed,
        path_threshold=args.path_threshold,
        halo=halo,
    )
    _emit(
        args,
        lambda: report.to_json_dict(include_timings=args.timings),
        text=report.to_text,
    )
    return EXIT_OK if report.passed else EXIT_VERIFY


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="raagbraid",
        description=(
            "Build halo graphs from colored graphs, realize generators as "
            "braid loops, and verify the embedding machinery."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def output(p, formats):
        p.add_argument(
            "--format", choices=formats, default="json",
            help="output format (default json)",
        )

    def colored_input(p, formats):
        p.add_argument("--input", required=True, help="path to a graph JSON file")
        output(p, formats)
        p.add_argument(
            "--exact", action="store_true",
            help="use the exact chromatic coloring instead of the greedy one",
        )

    def common(p, formats):
        colored_input(p, formats)
        p.add_argument("--coloring", help="path to a coloring JSON file")
        p.add_argument(
            "--path-threshold", choices=graphs.PATH_THRESHOLDS, default="paper",
            dest="path_threshold",
            help="edge-count convention for arcs between essential vertices",
        )

    p_color = sub.add_parser("color", help="color a graph")
    colored_input(p_color, ("json", "dot", "text"))
    p_color.set_defaults(func=cmd_color)

    p_halo = sub.add_parser("halo", help="build, subdivide and verify a halo")
    common(p_halo, ("json", "dot", "text"))
    p_halo.set_defaults(func=cmd_halo)

    p_cfg = sub.add_parser("configspace", help="count configuration-space cells")
    p_cfg.add_argument("--input", required=True, help="path to a graph JSON file")
    output(p_cfg, ("json", "text"))
    p_cfg.add_argument("--n", type=int, default=2, help="strand count (default 2)")
    p_cfg.set_defaults(func=cmd_configspace)

    p_embed = sub.add_parser("embed", help="map a word through the composite")
    common(p_embed, ("json", "text"))
    p_embed.add_argument("word", help="word in the text format, e.g. 'c b a b^-1'")
    p_embed.add_argument(
        "--unsquared", action="store_true",
        help="send generators to single loop traversals instead of squares",
    )
    p_embed.set_defaults(func=cmd_embed)

    p_verify = sub.add_parser("verify", help="run the full verification suite")
    common(p_verify, ("json", "text"))
    p_verify.add_argument("--max-len", type=int, default=4, dest="max_len")
    p_verify.add_argument("--samples", type=int, default=500)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument(
        "--timings", action="store_true",
        help="include each check's wall seconds in the JSON output (not byte-stable)",
    )
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SizeExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except VerificationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
