"""Golden outputs: the sha256 of the JSON stdout and the exit code of fixed
CLI runs. A change that alters any output byte of these runs fails here, so
refactors that promise byte-identical output are checked mechanically.

The digests were computed before the factor search in
``graphs.minimal_subdivision`` was replaced by the closed form. To re-pin
after a deliberate change of output, print ``golden_run``'s results for
every case and say in the change log which bytes changed and why.
"""
import hashlib
import io
from contextlib import redirect_stderr, redirect_stdout

import pytest

from raagbraid import SimpleGraph, graph_to_json_dict
from raagbraid.cli import main
from raagbraid.graphs import dumps_canonical

from oracles import complete_graph, cycle_graph, petersen_graph

GRAPHS = {
    "figure": SimpleGraph.make(["a", "b", "c"], [("a", "c")]),
    "c6": cycle_graph(6),
    "k4": complete_graph(4),  # needs subdivision
    "petersen": petersen_graph(),
    "c12": cycle_graph(12),
}

RUNS = {
    "verify": ["verify", "--max-len", "3", "--samples", "50"],
    "halo-paper": ["halo", "--path-threshold", "paper"],
    "halo-alt": ["halo", "--path-threshold", "alt"],
}

#: (graph, run) -> (exit code, sha256 of stdout)
GOLDEN = {
    ("c12", "halo-alt"): (0, "b19382c16f66a1a65538ffca9f03261116221e1420498dbdd8aaa84825c1a05c"),
    ("c12", "halo-paper"): (0, "255aab39830374c8e63e3babaa5cf5f04442538049646e21d1e4ce7dc6b83edb"),
    ("c12", "verify"): (0, "73ff012dd36c24e21761b90b5f30e060f06d2ac6d6e6b747267ff89f9736e78a"),
    ("c6", "halo-alt"): (0, "aae21c53f7b6fbc1c7fb8367b4cd86ecc2876032a4dd985d5cd80b648b472869"),
    ("c6", "halo-paper"): (0, "2d2a3ee13eb91c7145026e457b5ea8d9c0955ca91c3f291709ff06aa7545417b"),
    ("c6", "verify"): (0, "c4689302c73146414510d2d8749d964793acd5c488ffd39fde3f8c1e3ca045b5"),
    ("figure", "halo-alt"): (0, "61172c5e1b281e6bb976c9ccc756857b16d36611ebad6569850ed392ac8b0c21"),
    ("figure", "halo-paper"): (0, "a70827b0c56200ae6d34fd59d7f718197bfc6c65aaa6ff4cbb0e38f892be4c69"),
    ("figure", "verify"): (0, "61eb560d5af82dda330bff470a59ab4e6855bd0423750fe3a14fa63125139ddd"),
    ("k4", "halo-alt"): (0, "3942718415a46e677d7bc10960c20663a7a9a2b5269796abf3beb53f0bca7082"),
    ("k4", "halo-paper"): (0, "145f3ae7e6ed8b6f41556588f5cb2734b17b686c14bedb3ecfb0b5e333c71eca"),
    ("k4", "verify"): (0, "ef2cfdf4f6e3a7a07fc2faaae193d9f4d6a1ebc8fa97f278092cc207cccdd591"),
    ("petersen", "halo-alt"): (0, "ae61402e5a8af007421c7726e79a7800ccd1c19b689739aa68266a8eee285f71"),
    ("petersen", "halo-paper"): (0, "c5bcc8afc2ef27c78676c319526dcbc9af551e5db3ab91816d1d1285e42e2363"),
    ("petersen", "verify"): (0, "a1eb0e23197a27deaaf082fd94c9cfe438659c5f1cd9856a0292d342b99a75b7"),
}


def golden_run(tmp_path, graph_id: str, run_id: str) -> tuple[int, str]:
    path = tmp_path / f"{graph_id}.json"
    path.write_text(dumps_canonical(graph_to_json_dict(GRAPHS[graph_id])))
    argv = RUNS[run_id][:1] + ["--input", str(path)] + RUNS[run_id][1:]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("graph_id", sorted(GRAPHS))
@pytest.mark.parametrize("run_id", sorted(RUNS))
def test_golden_output(tmp_path, graph_id, run_id):
    assert golden_run(tmp_path, graph_id, run_id) == GOLDEN[graph_id, run_id]
