"""The CLI's exit-code contract from a cold interpreter: 0 ok, 2 input,
3 resource, 4 verification, never a traceback. Each row runs
``python -S -W error`` with PYTHONPATH exactly ``src``, so no site-packages,
``.pth`` file or test dependency is read and every warning is an error: it
passes on the standard library alone."""
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from raagbraid import SimpleGraph, build_halo, chromatic_number, greedy_color
from raagbraid import graph_to_json_dict, halo_to_json_dict, subdivided_halo

from oracles import complete_graph, cycle_graph, random_regular_multipartite

ROOT = Path(__file__).resolve().parent.parent

# the unsquared composite is not injective: the injectivity check finds the
# counterexample word at length 8, with its 15 other rotations and inverses
UNSQUARED = """\
from raagbraid import Coloring, SimpleGraph, build_context
from raagbraid import counterexample_word, injectivity_spot_check
delta = SimpleGraph.make(["a", "b", "c"], [("a", "c")])
ctx = build_context(delta, Coloring.make(delta, {"a": 1, "b": 2, "c": 3}))
report = injectivity_spot_check(ctx, max_len=8, squared=False)
assert len(report.failures) == 16, report.failures
assert str(counterexample_word(delta)) in report.failures, report.failures
"""


def printed_halo(g: SimpleGraph) -> dict:
    """The halo the ``halo`` command prints for ``g``: greedily coloured,
    then subdivided."""
    coloring = greedy_color(g)
    return halo_to_json_dict(subdivided_halo(build_halo(g, coloring), coloring.color_count))


@pytest.fixture(scope="module")
def inputs(tmp_path_factory, figure_delta):
    out = tmp_path_factory.mktemp("cli-contract")
    k4 = complete_graph(4)
    scale30, _ = random_regular_multipartite(random.Random(30), 3, 10, 2)
    # K_11's halo with a K_11 joined to x_1: the subdivision check lists
    # only the shortest cycles of the K_11, not all its cycles under 12 edges
    gadget = printed_halo(complete_graph(11))
    g = [f"g{i}" for i in range(11)]
    gadget["vertices"] += g
    gadget["edges"] += [[a, b] for i, a in enumerate(g) for b in g[i + 1 :]] + [["g0", "x_1"]]
    collide = json.dumps(printed_halo(figure_delta))
    for name, new in {"j~b~c": "q", "p~b~1": "r|s", "p~a~1": "q|r", "p~a~2": "s"}.items():
        collide = collide.replace(f'"{name}"', f'"{new}"')
    files = {
        "figure": graph_to_json_dict(figure_delta),
        "c12": graph_to_json_dict(cycle_graph(12)),
        "scale30": graph_to_json_dict(scale30),
        "k17": graph_to_json_dict(complete_graph(17)),
        "c2001": graph_to_json_dict(cycle_graph(2001, prefix="c")),
        "k11-gadget": gadget,
        "k4-halo": halo_to_json_dict(build_halo(k4, chromatic_number(k4))),
        "list": [],
    }
    for name, data in files.items():
        (out / f"{name}.json").write_text(json.dumps(data))
    (out / "collide.json").write_text(collide)
    (out / "malformed.json").write_text("{\n")
    (out / "not-utf8.json").write_bytes(b"\xff\xfe")
    return out


def cli(*argv):
    return ("-m", "raagbraid", *argv)


def has(*texts):
    """A test of stdout: it holds each of ``texts``; ``has()`` takes any."""
    return lambda out: all(t in out for t in texts)


def empty(out):
    return out == ""


#: (id, interpreter arguments, exit code, test of stdout)
ROWS = [
    # every sub-command once
    *(
        (f"{cmd}-figure", cli(cmd, "--input", "figure.json", *more), 0, has())
        for cmd, *more in (["verify"], ["halo"], ["color"], ["configspace", "--n", "2"],
                           ["embed", "a b a^-1"])
    ),
    ("help", cli("--help"), 0, has("color", "verify")),
    # the benchmark's verify settings
    ("verify-samples", cli("verify", "--input", "figure.json", "--max-len", "4",
                           "--samples", "500", "--seed", "7"), 0, has('"sample_count": 500')),
    # planarity has no vertex cap: C12's halo, over 64 vertices, is not planar
    ("halo-c12", cli("halo", "--input", "c12.json"), 0, has('"planar": false')),
    # the shape of the benchmark's scale inputs: a 753-vertex halo
    ("halo-scale30", cli("halo", "--input", "scale30.json"), 0, has()),
    ("verify-scale30", cli("verify", "--input", "scale30.json", "--max-len", "2",
                           "--samples", "100"), 0, has()),
    # malformed JSON, not UTF-8, not an object, no file, and a halo whose
    # edges (q, r|s) and (q|r, s) share a generator name: input errors
    *(
        (f"verify-{bad}", cli("verify", "--input", f"{bad}.json"), 2, has())
        for bad in ("malformed", "not-utf8", "list", "absent", "collide")
    ),
    ("verify-dot", cli("verify", "--input", "figure.json", "--format", "dot"), 2, has()),
    # random.Random(-1) would draw what random.Random(1) draws; --exact
    # colours only once the other arguments pass
    ("seed-negative", cli("verify", "--input", "figure.json", "--seed", "-1"), 2, empty),
    ("exact-seed-negative", cli("verify", "--input", "figure.json", "--exact", "--seed", "-1"),
     2, empty),
    # the figure graph has 3,524,576 nontrivial elements of length at most
    # 10, over the budget
    ("max-len-over-budget", cli("verify", "--input", "figure.json", "--max-len", "10"), 3, empty),
    # no vertex cap and no recursion: K17 takes 17 colours with no search,
    # and C_2001's search runs 2,001 levels deep to find that 2 do not do
    ("exact-k17", cli("color", "--exact", "--input", "k17.json"), 0, has('"colors": 17')),
    ("exact-c2001", cli("color", "--exact", "--input", "c2001.json"), 0, has('"colors": 3')),
    ("k11-gadget", cli("verify", "--input", "k11-gadget.json", "--max-len", "1",
                       "--samples", "0"), 0, has('"pass": true')),
    # a supplied halo that has to be subdivided
    ("k4-halo", cli("verify", "--input", "k4-halo.json", "--max-len", "2", "--samples", "20"),
     0, has('"pass": true')),
    *(
        (f"alt-{name}", cli("verify", "--input", f"{name}.json", "--path-threshold", "alt"),
         0, has('"pass": true'))
        for name in ("figure", "k4-halo")
    ),
    ("unsquared-figure", ("-c", UNSQUARED), 0, has()),
]


@pytest.mark.parametrize("args, code, stdout_ok", [row[1:] for row in ROWS],
                         ids=[row[0] for row in ROWS])
def test_cli_contract(inputs, args, code, stdout_ok):
    proc = subprocess.run(
        [sys.executable, "-S", "-W", "error", *args],
        cwd=inputs,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr, proc.stderr
    assert stdout_ok(proc.stdout), proc.stdout


def test_workflow_leaves_the_cli_to_this_table():
    """The contract has one home: no workflow line runs the CLI."""
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    assert not [line for line in workflow.splitlines() if "-m raagbraid" in line]
