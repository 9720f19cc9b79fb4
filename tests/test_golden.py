"""Golden outputs, pinned as sha256 digests.

``GOLDEN`` pins the exit code and stdout of fixed CLI runs. The
``configspace`` runs were pinned while the command still listed every
cell, before it counted them in closed form.
``REPORT_GOLDEN`` pins ``dumps_canonical(report.to_json_dict())`` of the
reports those runs never serialize: failing subdivision and halo reports,
relator checks, unsquared injectivity failures, the squaring counterexample,
pinch traces, the suite over a 40-vertex Δ, larger than the CLI runs'
graphs, and the halo of a 30-vertex regular 3-partite Δ coloured by its
parts, with the homomorphism check over it, and the exact colourings of
two random graphs that the greedy colouring gives one colour too many.
A change that alters any output byte of these fails here, so refactors
that promise byte-identical output are checked mechanically.

The CLI digests were computed before the factor search in
``graphs.minimal_subdivision`` was replaced by the closed form; the report
digests before the reports were serialized through ``graphs.json_value``;
the rand40 suite's before the injectivity check read the source exponent
sums in place of the image sums over all 3,640 edge generators of its halo;
the 30-vertex halo's and its check's before ``build_halo`` built Γ without
``SimpleGraph.make`` and the halo check read the shared vertices off its
per-vertex index.
The ``color --exact`` runs and the exact colourings were pinned before
the search per colour count was replaced by one branch and bound.
The Petersen and C12 runs and the rand40 suite were re-pinned when the
planarity test lost its 64-vertex cap: their halos' ``planar`` reads
``false`` where it read ``null``, and no other byte changed.
To re-pin after a deliberate change of output, run

    PYTHONPATH=src python tests/test_golden.py

paste the two tables it prints over the ones below, and say in the change
log which bytes changed and why.
"""
import hashlib
import io
import random
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from functools import cache
from pathlib import Path

import pytest

from raagbraid import (
    Coloring,
    GroupWord,
    Halo,
    SimpleGraph,
    build_context,
    build_halo,
    check_homomorphism,
    chromatic_number,
    counterexample_report,
    graph_to_json_dict,
    greedy_color,
    halo_to_json_dict,
    injectivity_spot_check,
    is_sufficiently_subdivided,
    pinch_trace,
    verify_halo,
    verify_suite,
)
from raagbraid.cli import main
from raagbraid.graphs import dumps_canonical

from oracles import (
    complete_graph,
    cycle_graph,
    petersen_graph,
    random_connected_graph,
    random_regular_multipartite,
)

FIGURE = SimpleGraph.make(["a", "b", "c"], [("a", "c")])

GRAPHS = {
    "figure": FIGURE,
    "c6": cycle_graph(6),
    "k4": complete_graph(4),  # needs subdivision
    "petersen": petersen_graph(),
    "c12": cycle_graph(12),
}

#: 40 vertices, greedily 4-coloured
RAND40 = random_connected_graph(random.Random(40), 40, 20)

#: 30 vertices in 3 parts of 10, two perfect matchings between every two
#: parts, coloured by its parts: the shape of the benchmark's ``scale``
#: inputs. Its halo (753 vertices) needs no subdivision for 3 strands.
SCALE30, SCALE30_PARTS = random_regular_multipartite(random.Random(30), 3, 10, 2)

RUNS = {
    "verify": ["verify", "--max-len", "3", "--samples", "50"],
    "halo-paper": ["halo", "--path-threshold", "paper"],
    "halo-alt": ["halo", "--path-threshold", "alt"],
    "configspace-n1": ["configspace", "--n", "1"],
    "configspace-n2": ["configspace", "--n", "2"],
    "configspace-n3": ["configspace", "--n", "3"],
    "configspace-n2-text": ["configspace", "--n", "2", "--format", "text"],
    "color-exact": ["color", "--exact"],
}

#: (graph, run) -> (exit code, sha256 of stdout)
GOLDEN = {
    ("c12", "color-exact"): (0, "b93402b70d20bbfa55e0af748f9c30ba3ca05cdc31ffddf4b6f13a1b4cfc2801"),
    ("c12", "configspace-n1"): (0, "291ebace7fb6d87d0300bcd1870c8f08136990df399562a452cbe1920e15cf76"),
    ("c12", "configspace-n2"): (0, "af79336ba657d9470bf3b12cdb448cea9110d105428d467a173bda058427ca64"),
    ("c12", "configspace-n2-text"): (0, "0d915a7485392cd208cb9062b5ab69781fb9a99e86179351c3676ce5f06d2d64"),
    ("c12", "configspace-n3"): (0, "9a490b93190481c746837ccd9c7b5c6d4d4f1556679dbbc5cf16445836efa6d7"),
    ("c12", "halo-alt"): (0, "b74acb2fda7a3cc2f1c2788930a60319f4d02e99b9b60a2c13cda1bf0378cd9a"),
    ("c12", "halo-paper"): (0, "7d27372325812ce9e33fd3661f7f1c597483668d0e15586de4f6ac8f8b89569b"),
    ("c12", "verify"): (0, "aad7075abcd9de0218404818b9d26c7047ca228f7cd0e82d86d97af21cc1d6e2"),
    ("c6", "color-exact"): (0, "7893ea3e39c07a4aafeb58ad8090669a06a632c462e42e64efbcb1ba80a44bc5"),
    ("c6", "configspace-n1"): (0, "e33ad83f3c190397855aedcca3690954e98c2632e862d4c4be6e9e29dd0aa50e"),
    ("c6", "configspace-n2"): (0, "9afa5e01c4ffa4b7742c2e036c940a68c08daf2c7e5ec42be9916f6e0de2811e"),
    ("c6", "configspace-n2-text"): (0, "9adb247c3dc3e1102c305ff6d4cbe7bd3048d89bd17c2efc8543862fa79caef6"),
    ("c6", "configspace-n3"): (0, "d5c4184355fcab9977747f6b0e17779264466cabb518f244634e8e30ca399290"),
    ("c6", "halo-alt"): (0, "aae21c53f7b6fbc1c7fb8367b4cd86ecc2876032a4dd985d5cd80b648b472869"),
    ("c6", "halo-paper"): (0, "2d2a3ee13eb91c7145026e457b5ea8d9c0955ca91c3f291709ff06aa7545417b"),
    ("c6", "verify"): (0, "c4689302c73146414510d2d8749d964793acd5c488ffd39fde3f8c1e3ca045b5"),
    ("figure", "color-exact"): (0, "5752e2118e6c091857a9693f4e15b80e3359b68eb91d5e7780c006453091afd0"),
    ("figure", "configspace-n1"): (0, "84e3fe062650b0b6ce0a2750b67d66a7530efb70f9c30610d618bbfc5974399a"),
    ("figure", "configspace-n2"): (0, "c30ed3e49cd6d0b7a5634005157ccdaa0e14eaac73ae44a6bb0d03037751e992"),
    ("figure", "configspace-n2-text"): (0, "38787408c603916952acdaed8b531e1285b130284e5709ae630470e264006e2b"),
    ("figure", "configspace-n3"): (0, "1fe761eccb584688f93abf265012b2072d51af9666b729388f426030dbb85759"),
    ("figure", "halo-alt"): (0, "61172c5e1b281e6bb976c9ccc756857b16d36611ebad6569850ed392ac8b0c21"),
    ("figure", "halo-paper"): (0, "a70827b0c56200ae6d34fd59d7f718197bfc6c65aaa6ff4cbb0e38f892be4c69"),
    ("figure", "verify"): (0, "61eb560d5af82dda330bff470a59ab4e6855bd0423750fe3a14fa63125139ddd"),
    ("k4", "color-exact"): (0, "14a9bf0db6ca0ee2cafedbb0aedbb0ee8da922ffaba033a598f365449c766a0a"),
    ("k4", "configspace-n1"): (0, "3de044a01e43c8feb7a5fde62ff5e2d9bf8d00b89a8b87ea9e3254a51ac191ff"),
    ("k4", "configspace-n2"): (0, "14c091bbbb9c30ca48723b11d3f4a4bb7273c1f7f87f1b70a5a9b5758f4d77cb"),
    ("k4", "configspace-n2-text"): (0, "87c4a301d1b1c5312c1934eb3f604fe3643a03e3b5fb7d2efeb14e70a3bd4a42"),
    ("k4", "configspace-n3"): (0, "5eaa08069d706c37d9eb48948a31faccd8fed17be13e4ac61b557510b83f6444"),
    ("k4", "halo-alt"): (0, "3942718415a46e677d7bc10960c20663a7a9a2b5269796abf3beb53f0bca7082"),
    ("k4", "halo-paper"): (0, "145f3ae7e6ed8b6f41556588f5cb2734b17b686c14bedb3ecfb0b5e333c71eca"),
    ("k4", "verify"): (0, "ef2cfdf4f6e3a7a07fc2faaae193d9f4d6a1ebc8fa97f278092cc207cccdd591"),
    ("petersen", "color-exact"): (0, "8c2ddd84637e8ee4f266248e46780bf99573a9634152d9f94fde0c7324dd9da0"),
    ("petersen", "configspace-n1"): (0, "92c2248cc0e2ae9e54630d78dcb442f2984437e2dfd1b97a87409a35b52e76d9"),
    ("petersen", "configspace-n2"): (0, "ee11d6a1dd48865403de0a64c7d92f9c6595de4bd807b43a4e04d8948dec8bec"),
    ("petersen", "configspace-n2-text"): (0, "3bcb12a348bd5f8d928e91992b7bcf11df9b5077c76d0d62b0917c9a5ace877e"),
    ("petersen", "configspace-n3"): (0, "2ccca4ed0054d2b788b5e2e1486e556bc6d25f652693848f5c169e0f12868c5f"),
    ("petersen", "halo-alt"): (0, "8ce58842fe84edc69ccfb1476cabf0a836d41bad9f0ac12168b35963a0dcd652"),
    ("petersen", "halo-paper"): (0, "d05d844a3152fb403db592759e0d00653e8d1ed17d7fbddb9b3558730d3bcc40"),
    ("petersen", "verify"): (0, "920173cec637b3fc92dd14a8bcddbf572a7d209d8c2197805f660cc3e6f08d26"),
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


@cache
def context(graph_id: str):
    g = GRAPHS[graph_id]
    if graph_id == "figure":
        return build_context(g, Coloring.make(g, {"a": 1, "b": 2, "c": 3}))
    return build_context(g, greedy_color(g))


def c6_halo_without_a1_loop() -> Halo:
    h = build_halo(GRAPHS["c6"], greedy_color(GRAPHS["c6"]))
    loops = tuple((a, loop) for a, loop in h.artin_loops if a != "a1")
    return Halo(h.gamma, loops, h.basepoints, h.coloring, h.delta)


PINCH_WORDS = ("c b a b^-1 c^-1 b a^-1 b^-1", "a b c a^-1 b^-1 c^-1")

#: report id -> a function building that report
REPORTS = {
    "subdivision-k4-unsubdivided": lambda: is_sufficiently_subdivided(
        build_halo(GRAPHS["k4"], greedy_color(GRAPHS["k4"])).gamma, 4
    ),
    "halo-c6-missing-loop": lambda: verify_halo(c6_halo_without_a1_loop()),
    **{
        f"homomorphism-{g}": (lambda g=g: check_homomorphism(context(g)))
        for g in ("figure", "c6", "k4")
    },
    "injectivity-figure-unsquared": lambda: injectivity_spot_check(
        context("figure"), max_len=8, sample_count=50, seed=1, squared=False
    ),
    "counterexample-figure": lambda: counterexample_report(FIGURE),
    "verify-rand40": lambda: verify_suite(
        RAND40, greedy_color(RAND40), max_len=2, sample_count=100
    ),
    **{
        f"exact-coloring-rand{n}": (
            lambda n=n: chromatic_number(random_connected_graph(random.Random(n), n, n // 2))
        )
        for n in (10, 16)
    },
    "homomorphism-scale30": lambda: check_homomorphism(
        build_context(SCALE30, Coloring.make(SCALE30, SCALE30_PARTS))
    ),
    "halo-scale30": lambda: halo_to_json_dict(
        build_halo(SCALE30, Coloring.make(SCALE30, SCALE30_PARTS))
    ),
    **{
        f"pinch-{'squared' if squared else 'unsquared'}-{w}": (
            lambda w=w, squared=squared: pinch_trace(
                GroupWord.parse(w), context("figure"), squared=squared
            )
        )
        for w in PINCH_WORDS
        for squared in (True, False)
    },
}

#: report id -> sha256 of the report's canonical JSON
REPORT_GOLDEN = {
    "counterexample-figure": "e6c210238e164c06cbf33099988669678d5cf668576ba2b83e0ba0ce90f01469",
    "exact-coloring-rand10": "2613dc3bb86639870ea5435b36e742615f072b17545a458a91fed7d984dbc087",
    "exact-coloring-rand16": "64243eb493e8072e03b7b875ef9f75732085d73310850c8d93ca6130b5ab9e85",
    "halo-c6-missing-loop": "a59f450f408f3cf1ee871a20737a8180481e9e4cc5ff1605a95040f70e8eaf13",
    "halo-scale30": "afa612c0337aab76aa6cb9ecdef143b42c8284661b34436c6b3d5dc2402a4974",
    "homomorphism-c6": "92a41db8d0b2e28f8264031b59ff266da6bd15400ff8d519abbcf405e48ea7a5",
    "homomorphism-figure": "a591bfa9b56bc3472fede292615b8d40e69de8a2fa61366e434a8f35801c8851",
    "homomorphism-k4": "2b7b01221abdc479f0c045291071947c901069e294155050c23d0390b55702a1",
    "homomorphism-scale30": "22a7f68edf78376b2d32e24b58785c65b9da605f9f831b42c8442f0f2c0c3dfd",
    "injectivity-figure-unsquared": "9c705b71ceeed814d33058da6a2f4560e2dd23c5b0dd01efdb012f5dd3ae1af5",
    "pinch-squared-a b c a^-1 b^-1 c^-1": "abb3cef0d78930da33c7b5499795a4ac914fc1742d7300d6dd2f57cd3d5b5f28",
    "pinch-squared-c b a b^-1 c^-1 b a^-1 b^-1": "3c186addfe5aefafc3e444447150e587d4627df647837aa0b63fe5b4e231a9c2",
    "pinch-unsquared-a b c a^-1 b^-1 c^-1": "d6dfe508ce50e94dee32d171b69babd16c836d471b251b08a54b8c45dc79974f",
    "pinch-unsquared-c b a b^-1 c^-1 b a^-1 b^-1": "545d3950214b56305e5639c6618a6d58b9a2fcaaa84e0d1f4f363f0a486b2b33",
    "subdivision-k4-unsubdivided": "3d54049258c6944b5675c2133edf632d6d5d37fbe0597a57ce73be5ed11c10e7",
    "verify-rand40": "6a4cf41cede47916d981f635b16edad7af4941fa8ab293cfc9f648f23b355477",
}


def report_digest(report_id: str) -> str:
    report = REPORTS[report_id]()
    text = dumps_canonical(report if isinstance(report, dict) else report.to_json_dict())
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("report_id", sorted(REPORTS))
def test_report_golden(report_id):
    assert report_digest(report_id) == REPORT_GOLDEN[report_id]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        print("GOLDEN = {")
        for graph_id in sorted(GRAPHS):
            for run_id in sorted(RUNS):
                code, digest = golden_run(Path(tmp), graph_id, run_id)
                print(f'    ("{graph_id}", "{run_id}"): ({code}, "{digest}"),')
        print("}")
    print("REPORT_GOLDEN = {")
    for report_id in sorted(REPORTS):
        print(f'    "{report_id}": "{report_digest(report_id)}",')
    print("}")
