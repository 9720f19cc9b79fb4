import copy
import io
import json
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from raagbraid import (
    Coloring,
    SimpleGraph,
    build_halo,
    chromatic_number,
    graph_to_json_dict,
    halo_to_json_dict,
)
from raagbraid import embedding
from raagbraid.cli import build_parser, main
from raagbraid.graphs import dumps_canonical

from oracles import complete_graph, cycle_graph, petersen_graph


def write_graph(tmp_path, g, name="graph.json"):
    path = tmp_path / name
    path.write_text(dumps_canonical(graph_to_json_dict(g)))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestColor:
    def test_c6_exact(self, tmp_path, capsys, c6):
        path = write_graph(tmp_path, c6)
        code, out, _ = run(capsys, ["color", "--input", path, "--exact"])
        assert code == 0
        data = json.loads(out)
        assert data["colors"] == 2

    def test_k4(self, tmp_path, capsys):
        path = write_graph(tmp_path, complete_graph(4))
        code, out, _ = run(capsys, ["color", "--input", path])
        assert code == 0
        assert json.loads(out)["colors"] == 4

    def test_malformed_json_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run(capsys, ["color", "--input", str(path)])
        assert code == 2
        assert "error" in err

    def test_exact_size_bound_exit_3(self, tmp_path, capsys, monkeypatch):
        """The bound is the search's color placements, not the vertex count:
        K17, past the old 16-vertex cap, needs none; Petersen needs 6."""
        from raagbraid import errors

        monkeypatch.setattr(errors, "DEFAULT_BUDGET", 5)
        k17 = write_graph(tmp_path, complete_graph(17), "k17.json")
        code, out, _ = run(capsys, ["color", "--input", k17, "--exact"])
        assert (code, json.loads(out)["colors"]) == (0, 17)
        petersen = write_graph(tmp_path, petersen_graph(), "petersen.json")
        code, out, err = run(capsys, ["color", "--input", petersen, "--exact"])
        assert (code, out) == (3, "")
        assert err == "error: exact coloring needs over 5 color placements\n"

    def test_text_empty_graph(self, tmp_path, capsys):
        path = write_graph(tmp_path, SimpleGraph.make([], []))
        assert run(capsys, ["color", "--input", path, "--format", "text"]) == (0, "", "")
        path = write_graph(tmp_path, cycle_graph(3))
        code, out, _ = run(capsys, ["color", "--input", path, "--format", "text"])
        assert out == "a1 1\na2 2\na3 3\n"

    def test_dot_output(self, tmp_path, capsys, c6):
        path = write_graph(tmp_path, c6)
        code, out, _ = run(capsys, ["color", "--input", path, "--format", "dot"])
        assert code == 0
        assert out.startswith("graph G {")


class TestFormats:
    """Each sub-command offers only the output formats it writes."""

    def test_halo_dot_output(self, tmp_path, capsys, c6):
        path = write_graph(tmp_path, c6)
        code, out, _ = run(capsys, ["halo", "--input", path, "--format", "dot"])
        assert code == 0
        assert out.startswith("graph Halo {")

    @pytest.mark.parametrize(
        "command", [["verify"], ["embed", "a"], ["configspace"]],
        ids=["verify", "embed", "configspace"],
    )
    def test_no_dot_exit_2(self, tmp_path, capsys, figure_delta, command):
        path = write_graph(tmp_path, figure_delta)
        with pytest.raises(SystemExit) as exc:
            main([*command, "--input", path, "--format", "dot"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "invalid choice: 'dot'" in captured.err


class TestOnlyTheRequestedFormat:
    """``_emit`` builds only the format asked for: the other renderers may
    raise, and the bytes are those of a run that did not touch them, but
    for the check times that ``verify --format text`` prints."""

    def _both(self, capsys, monkeypatch, argv, renderers):
        def untimed(result):
            code, out, err = result
            return code, re.sub(r"\(\d+\.\d{3}s\)", "(-)", out), err

        expected = untimed(run(capsys, argv))

        def refuse(*args, **kwargs):
            raise AssertionError("rendered a format that was not asked for")

        for owner, name in renderers:
            monkeypatch.setattr(owner, name, refuse)
        assert untimed(run(capsys, argv)) == expected
        return expected

    def test_json_runs(self, tmp_path, capsys, monkeypatch, c6):
        from raagbraid import halo as halo_mod

        path = write_graph(tmp_path, c6)
        renderers = [
            (embedding.VerificationReport, "to_text"),
            (halo_mod, "halo_to_dot"),
        ]
        for argv in (["verify", "--input", path, "--samples", "20"], ["halo", "--input", path]):
            code, out, _ = self._both(capsys, monkeypatch, argv, renderers)
            assert code == 0
            json.loads(out)

    def test_text_runs(self, tmp_path, capsys, monkeypatch, c6):
        from raagbraid import halo as halo_mod

        path = write_graph(tmp_path, c6)
        renderers = [
            (embedding.VerificationReport, "to_json_dict"),
            (halo_mod, "halo_to_json_dict"),
            (halo_mod, "halo_to_dot"),
        ]
        for argv in (
            ["verify", "--input", path, "--samples", "20", "--format", "text"],
            ["halo", "--input", path, "--format", "text"],
        ):
            code, out, _ = self._both(capsys, monkeypatch, argv, renderers)
            assert code == 0
            assert out.endswith("\n") and not out.startswith("{")


class TestHalo:
    def test_c6(self, tmp_path, capsys, c6):
        path = write_graph(tmp_path, c6)
        code, out, _ = run(capsys, ["halo", "--input", path, "--exact"])
        assert code == 0
        data = json.loads(out)
        assert data["planar"] is True
        assert data["report"]["ok"] is True
        assert data["path_threshold"] == "paper"
        assert set(data["halo"]["loops"]) == {f"a{i}" for i in range(1, 7)}

    def test_single_vertex(self, tmp_path, capsys):
        from raagbraid import SimpleGraph

        path = write_graph(tmp_path, SimpleGraph.make(["a"]))
        code, out, _ = run(capsys, ["halo", "--input", path])
        assert code == 0
        assert json.loads(out)["report"]["ok"] is True

    def test_improper_coloring_exit_4(self, tmp_path, capsys, c6):
        path = write_graph(tmp_path, c6)
        bad = tmp_path / "coloring.json"
        bad.write_text(json.dumps({"colors": 1, "assignment": {f"a{i}": 1 for i in range(1, 7)}}))
        code, _, err = run(capsys, ["halo", "--input", path, "--coloring", str(bad)])
        assert code == 4

    def test_coloring_file_roundtrip(self, tmp_path, capsys, c6):
        path = write_graph(tmp_path, c6)
        coloring = tmp_path / "coloring.json"
        coloring.write_text(json.dumps(chromatic_number(c6).to_json_dict()))
        code, out, _ = run(capsys, ["halo", "--input", path, "--coloring", str(coloring)])
        assert code == 0


class TestConfigspace:
    def test_p3(self, tmp_path, capsys):
        from oracles import path_graph

        path = write_graph(tmp_path, path_graph(3))
        code, out, _ = run(capsys, ["configspace", "--input", path, "--n", "2"])
        assert code == 0
        assert json.loads(out) == {"n": 2, "zero_cells": 3, "one_cells": 2}

    def test_n1_counts(self, tmp_path, capsys, c6):
        path = write_graph(tmp_path, c6)
        code, out, _ = run(capsys, ["configspace", "--input", path, "--n", "1"])
        data = json.loads(out)
        assert (data["zero_cells"], data["one_cells"]) == (6, 6)

    @pytest.mark.parametrize("budget", ["5", "-5"])
    def test_budget_option_exit_2(self, tmp_path, capsys, figure_delta, budget):
        """Cell counts are closed-form and bounded by no budget, so
        ``--budget`` is no option: a usage error."""
        path = write_graph(tmp_path, figure_delta)
        with pytest.raises(SystemExit) as exc:
            main(["configspace", "--input", path, "--budget", budget])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "unrecognized arguments: --budget" in err

    def test_k10_five_strands(self, tmp_path, capsys):
        # 252 + 45 * C(8, 4) = 3,402 cells, counted at once
        path = write_graph(tmp_path, complete_graph(10))
        code, out, _ = run(capsys, ["configspace", "--input", path, "--n", "5"])
        assert code == 0
        assert json.loads(out) == {"n": 5, "zero_cells": 252, "one_cells": 3150}


class TestEmbed:
    def test_counterexample_unsquared_trivial(self, tmp_path, capsys, figure_delta):
        path = write_graph(tmp_path, figure_delta)
        coloring = tmp_path / "coloring.json"
        coloring.write_text(
            json.dumps({"colors": 3, "assignment": {"a": 1, "b": 2, "c": 3}})
        )
        word = "c b a b^-1 c^-1 b a^-1 b^-1"
        code, out, _ = run(
            capsys,
            [
                "embed", "--input", path, "--coloring", str(coloring),
                "--unsquared", word,
            ],
        )
        assert code == 0
        data = json.loads(out)
        assert data["trivial"] is True

        code, out, _ = run(
            capsys,
            ["embed", "--input", path, "--coloring", str(coloring), word],
        )
        assert json.loads(out)["trivial"] is False

    def test_empty_word_trivial(self, tmp_path, capsys, figure_delta):
        path = write_graph(tmp_path, figure_delta)
        code, out, _ = run(capsys, ["embed", "--input", path, ""])
        assert code == 0
        assert json.loads(out)["trivial"] is True

    def test_bad_word_exit_2_before_the_context(
        self, tmp_path, capsys, figure_delta, monkeypatch
    ):
        def never(*args):
            raise AssertionError("context built before the word was parsed")

        monkeypatch.setattr(embedding, "build_context", never)
        path = write_graph(tmp_path, figure_delta)
        code, out, err = run(capsys, ["embed", "--input", path, "a b^2"])
        assert code == 2
        assert out == ""
        assert "bad letter token" in err

    def test_unknown_generator_exit_2(self, tmp_path, capsys, figure_delta):
        path = write_graph(tmp_path, figure_delta)
        code, _, _ = run(capsys, ["embed", "--input", path, "q r^-1"])
        assert code == 2


class TestVerify:
    def test_c6_bundle_passes(self, tmp_path, capsys, c6):
        path = write_graph(tmp_path, c6)
        code, out, _ = run(
            capsys,
            [
                "verify", "--input", path, "--exact",
                "--max-len", "3", "--samples", "25",
            ],
        )
        assert code == 0
        data = json.loads(out)
        assert data["pass"] is True
        assert data["path_threshold"] == "paper"

    def test_figure_has_counterexample_section(self, tmp_path, capsys, figure_delta):
        path = write_graph(tmp_path, figure_delta)
        code, out, _ = run(
            capsys,
            ["verify", "--input", path, "--max-len", "2", "--samples", "10"],
        )
        assert code == 0
        data = json.loads(out)
        names = [c["name"] for c in data["checks"]]
        assert "squaring-counterexample" in names

    def test_corrupted_halo_exit_4(self, tmp_path, capsys, c6):
        coloring = chromatic_number(c6)
        h = build_halo(c6, coloring)
        data = halo_to_json_dict(h)
        # delete one loop edge from the serialized halo
        a1 = data["loops"]["a1"]
        data["edges"] = [e for e in data["edges"] if e != sorted([a1[0], a1[1]])]
        path = tmp_path / "halo.json"
        path.write_text(json.dumps(data))
        code, out, _ = run(capsys, ["verify", "--input", str(path), "--samples", "0"])
        assert code == 4
        assert json.loads(out)["pass"] is False

    def test_colliding_edge_names_exit_2(self, tmp_path, capsys, figure_delta):
        """Renamed so that the edges become (q, r|s) and (q|r, s), two edges
        of the canonical halo join to one generator name: the edge group
        would merge them, so the file is refused before any output."""
        data = halo_to_json_dict(build_halo(figure_delta, chromatic_number(figure_delta)))
        rename = {"j~b~c": "q", "p~b~1": "r|s", "p~a~1": "q|r", "p~a~2": "s"}
        assert set(rename) <= set(data["vertices"])
        data["vertices"] = [rename.get(v, v) for v in data["vertices"]]
        data["edges"] = [[rename.get(v, v) for v in e] for e in data["edges"]]
        data["loops"] = {a: [rename.get(v, v) for v in loop] for a, loop in data["loops"].items()}
        path = tmp_path / "halo.json"
        path.write_text(json.dumps(data))
        code, out, err = run(
            capsys, ["verify", "--input", str(path), "--max-len", "4", "--samples", "200"]
        )
        assert code == 2 and out == ""
        assert err == (
            "error: halo edges ('q', 'r|s') and ('q|r', 's') both get the generator "
            "name 'q|r|s'\n"
        )

    def test_verified_halo_bundle_passes(self, tmp_path, capsys, figure_delta, figure_coloring):
        h = build_halo(figure_delta, figure_coloring)
        path = tmp_path / "halo.json"
        path.write_text(json.dumps(halo_to_json_dict(h)))
        code, out, _ = run(
            capsys,
            ["verify", "--input", str(path), "--max-len", "2", "--samples", "5"],
        )
        assert code == 0

    @pytest.mark.parametrize(
        "key, on_loop", [("9", False), ("0", False), ("9", True)],
        ids=["9-basepoint", "0-basepoint", "9-loop-vertex"],
    )
    def test_basepoint_color_out_of_range_exit_4(
        self, tmp_path, capsys, figure_delta, figure_coloring, key, on_loop
    ):
        data = halo_to_json_dict(build_halo(figure_delta, figure_coloring))
        vertex = data["loops"]["a"][1] if on_loop else "x_1"
        data["basepoints"][key] = vertex
        path = tmp_path / "halo.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, ["verify", "--input", str(path), "--samples", "0"])
        assert code == 4, err
        (axioms,) = json.loads(out)["checks"]
        assert axioms["details"]["axioms_violated"] == ["basepoint"]
        assert axioms["witnesses"] == [f"basepoint {vertex!r} is for color {key}, outside 1..3"]

    @pytest.mark.parametrize(
        "mutate, witness",
        [
            (lambda d: d["basepoints"].pop("2"), "color 2 has no basepoint"),
            (
                lambda d: d["basepoints"].update({"2": "nowhere"}),
                "basepoint 'nowhere' of color 2 is not a vertex",
            ),
            (
                lambda d: d["loops"].update(a=d["loops"]["a"][:-1]),
                "loop of 'a' must close over at least three vertices",
            ),
            (
                lambda d: d["loops"].update(a=[d["loops"]["a"][i] for i in (0, 1, 2, 1, 0)]),
                "loop of 'a' repeats a vertex",
            ),
        ],
        ids=["no-basepoint", "basepoint-not-a-vertex", "open-loop", "repeated-vertex"],
    )
    def test_halo_axiom_violation_exit_4(
        self, tmp_path, capsys, figure_delta, figure_coloring, mutate, witness
    ):
        data = halo_to_json_dict(build_halo(figure_delta, figure_coloring))
        mutate(data)
        path = tmp_path / "halo.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, ["verify", "--input", str(path), "--samples", "0"])
        assert code == 4, err
        (axioms,) = json.loads(out)["checks"]
        assert witness in axioms["witnesses"]

    @pytest.mark.parametrize("flag", ["--coloring", "--exact"])
    def test_coloring_flags_refused_for_a_halo_file(
        self, tmp_path, capsys, figure_delta, figure_coloring, flag
    ):
        path = tmp_path / "halo.json"
        path.write_text(json.dumps(halo_to_json_dict(build_halo(figure_delta, figure_coloring))))
        # the coloring file does not exist: the flag is refused before it is read
        extra = [flag, str(tmp_path / "absent.json")] if flag == "--coloring" else [flag]
        code, out, err = run(capsys, ["verify", "--input", str(path), *extra])
        assert code == 2
        assert out == ""
        assert err == f"error: {flag} does not apply to a halo file, which carries its coloring\n"

    def test_alt_threshold_passes_on_k4(self, tmp_path, capsys):
        path = write_graph(tmp_path, complete_graph(4))
        argv = ["verify", "--input", path, "--path-threshold", "alt", "--max-len", "2"]
        code, out, err = run(capsys, argv + ["--samples", "20"])
        assert code == 0, err
        data = json.loads(out)
        assert data["pass"] is True
        assert data["path_threshold"] == "alt"
        (sub,) = [c for c in data["checks"] if c["name"] == "subdivision"]
        assert sub["details"]["path_threshold"] == "alt"

    def test_byte_identical_reruns(self, tmp_path, capsys, c6):
        path = write_graph(tmp_path, c6)
        argv = [
            "verify", "--input", path, "--exact",
            "--max-len", "2", "--samples", "20", "--seed", "7",
        ]
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        assert first == second

    def test_timings_only_with_flag(self, tmp_path, capsys, figure_delta):
        path = write_graph(tmp_path, figure_delta)
        argv = ["verify", "--input", path, "--max-len", "1", "--samples", "5"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert all("seconds" not in c for c in json.loads(out)["checks"])
        code, out, _ = run(capsys, argv + ["--timings"])
        assert code == 0
        checks = json.loads(out)["checks"]
        assert checks and all(isinstance(c["seconds"], float) for c in checks)

    def test_text_format(self, tmp_path, capsys, figure_delta):
        path = write_graph(tmp_path, figure_delta)
        code, out, _ = run(
            capsys,
            [
                "verify", "--input", path, "--max-len", "1",
                "--samples", "5", "--format", "text",
            ],
        )
        assert code == 0
        assert "overall: pass" in out

    def test_text_renders_nested_details_as_json(self, tmp_path, capsys, c6):
        h = build_halo(c6, chromatic_number(c6))
        data = halo_to_json_dict(h)
        a1 = data["loops"]["a1"]
        data["edges"] = [e for e in data["edges"] if e != sorted([a1[0], a1[1]])]
        path = tmp_path / "halo.json"
        path.write_text(json.dumps(data))
        argv = ["verify", "--input", str(path), "--samples", "0"]
        code, out, _ = run(capsys, argv)
        assert code == 4
        (axioms,) = json.loads(out)["checks"]
        assert axioms["details"]["axioms_violated"] == ["simple-loop"]
        code, out, _ = run(capsys, argv + ["--format", "text"])
        assert code == 4
        assert "    axioms_violated: [\"simple-loop\"]\n" in out
        assert "['" not in out

    def test_text_nested_values_spell_json_literals(self):
        check = embedding.CheckResult(
            name="made-up",
            passed=True,
            details={"pairs": [{"ok": True, "planar": None}], "ids": ("x",)},
            witnesses=(),
            seconds=0.0,
        )
        text = embedding.VerificationReport(True, "paper", (check,)).to_text()
        assert '    ids: ["x"]\n' in text
        assert '    pairs: [{"ok": true, "planar": null}]\n' in text

    def test_negative_samples_exit_2(self, tmp_path, capsys, figure_delta):
        path = write_graph(tmp_path, figure_delta)
        code, out, err = run(
            capsys, ["verify", "--input", path, "--max-len", "1", "--samples", "-3"]
        )
        assert code == 2
        assert out == ""
        assert "sample_count must be >= 0, got -3" in err

    def test_negative_seed_exit_2(self, tmp_path, capsys, figure_delta):
        # random.Random(-5) draws what random.Random(5) draws
        path = write_graph(tmp_path, figure_delta)
        code, out, err = run(capsys, ["verify", "--input", path, "--seed", "-5"])
        assert code == 2
        assert out == ""
        assert "seed must be >= 0, got -5" in err

    @pytest.mark.parametrize(
        "flag, value, code, message",
        [
            ("--seed", "-1", 2, "seed must be >= 0, got -1"),
            ("--max-len", "-1", 2, "max_len must be >= 0, got -1"),
            ("--samples", "1000001", 3, "1000001 samples to draw, over the budget of 1000000"),
        ],
    )
    def test_arguments_checked_before_exact_coloring(
        self, tmp_path, capsys, figure_delta, monkeypatch, flag, value, code, message
    ):
        """``--exact``'s search, which may take the whole budget, runs only
        once the other arguments are checked."""
        from raagbraid import graphs

        def never(g):
            raise AssertionError("colored before the arguments were checked")

        monkeypatch.setattr(graphs, "chromatic_number", never)
        path = write_graph(tmp_path, figure_delta)
        argv = ["verify", "--input", path, "--exact", flag, value]
        assert run(capsys, argv) == (code, "", f"error: {message}\n")

    def test_samples_without_length_exit_2(self, tmp_path, capsys, figure_delta):
        path = write_graph(tmp_path, figure_delta)
        code, out, err = run(
            capsys, ["verify", "--input", path, "--max-len", "0", "--samples", "5"]
        )
        assert code == 2
        assert out == ""
        assert "5 samples need max_len >= 1" in err
        code, out, _ = run(
            capsys, ["verify", "--input", path, "--max-len", "0", "--samples", "0"]
        )
        assert code == 0
        assert '"sample_count": 0' in out

    def test_element_budget_exit_3(self, tmp_path, capsys, figure_delta, monkeypatch):
        def never(*args):
            raise AssertionError("enumeration started over budget")

        monkeypatch.setattr(embedding, "_nontrivial_elements", never)
        path = write_graph(tmp_path, figure_delta)
        code, out, err = run(capsys, ["verify", "--input", path, "--max-len", "10"])
        assert code == 3
        assert out == ""
        assert "3524576" in err

    def test_sample_budget_exit_3(self, tmp_path, capsys, figure_delta, monkeypatch):
        def never(*args):
            raise AssertionError("enumeration started over budget")

        monkeypatch.setattr(embedding, "_nontrivial_elements", never)
        path = write_graph(tmp_path, figure_delta)
        code, out, err = run(capsys, ["verify", "--input", path, "--samples", "1000001"])
        assert code == 3
        assert out == ""
        assert "1000001 samples" in err

    @pytest.mark.parametrize("k", [5, 10])
    def test_dense_component_verifies(self, tmp_path, capsys, k):
        """A halo file of K_k with a K_k joined to x_1 meets every axiom, and
        is subdivided and verified: the subdivision check lists only the
        shortest cycles, where the K_10 joined on has 556,014 cycles shorter
        than 11 edges."""
        delta = complete_graph(k)
        data = halo_to_json_dict(build_halo(delta, chromatic_number(delta)))
        gadget = [f"g{i}" for i in range(k)]
        data["vertices"] += gadget
        data["edges"] += [[a, b] for i, a in enumerate(gadget) for b in gadget[i + 1 :]]
        data["edges"].append(["g0", "x_1"])
        path = tmp_path / "halo.json"
        path.write_text(json.dumps(data))
        argv = ["verify", "--input", str(path), "--max-len", "1", "--samples", "0"]
        code, out, err = run(capsys, argv)
        assert code == 0, err
        assert json.loads(out)["pass"] is True

    def test_corrupted_halo_with_bad_samples_exit_2(self, tmp_path, capsys, c6):
        """The suite checks its arguments before the halo axioms."""
        h = build_halo(c6, chromatic_number(c6))
        data = halo_to_json_dict(h)
        a1 = data["loops"]["a1"]
        data["edges"] = [e for e in data["edges"] if e != sorted([a1[0], a1[1]])]
        path = tmp_path / "halo.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, ["verify", "--input", str(path), "--samples", "-1"])
        assert code == 2
        assert out == ""
        assert "sample_count must be >= 0" in err


@pytest.mark.parametrize(
    "graph, gamma_vertices",
    [(petersen_graph(), 67), (cycle_graph(12), 114)],
    ids=["petersen", "c12"],
)
class TestPlanarityCap:
    """Planarity has no vertex cap: halos over 64 vertices report it as a
    boolean, ``false`` for these two, and still verify."""

    def test_verify(self, tmp_path, capsys, graph, gamma_vertices):
        path = write_graph(tmp_path, graph)
        argv = ["verify", "--input", path, "--max-len", "2", "--samples", "20"]
        code, out, err = run(capsys, argv)
        assert code == 0, err
        data = json.loads(out)
        assert data["pass"] is True
        (axioms,) = [c for c in data["checks"] if c["name"] == "halo-axioms"]
        assert axioms["details"]["planar"] is False
        code, out, _ = run(capsys, argv + ["--format", "text"])
        assert code == 0
        assert "    planar: false\n" in out

    def test_halo(self, tmp_path, capsys, graph, gamma_vertices):
        path = write_graph(tmp_path, graph)
        code, out, err = run(capsys, ["halo", "--input", path])
        assert code == 0, err
        data = json.loads(out)
        assert data["planar"] is False
        assert data["report"]["ok"] is True
        code, out, _ = run(capsys, ["halo", "--input", path, "--format", "text"])
        assert code == 0
        assert f"gamma vertices: {gamma_vertices}\n" in out
        assert "\nplanar: false\n" in out


class TestTextPlanarity:
    """``verify`` and ``halo`` print planarity alike as text, ``true`` or
    ``false`` as JSON spells them."""

    @pytest.mark.parametrize("n, planar", [(6, "true"), (7, "false")])
    def test_verify_and_halo_agree(self, tmp_path, capsys, n, planar):
        path = write_graph(tmp_path, cycle_graph(n))
        argv = ["verify", "--input", path, "--max-len", "2", "--samples", "20"]
        code, verify_out, _ = run(capsys, argv + ["--format", "text"])
        assert code == 0
        code, halo_out, _ = run(capsys, ["halo", "--input", path, "--format", "text"])
        assert code == 0
        assert f"\n    planar: {planar}\n" in verify_out
        assert f"\nplanar: {planar}\n" in halo_out
        assert "True" not in verify_out and "False" not in verify_out

    def test_k6_verify_and_halo_agree(self, tmp_path, capsys):
        """Both commands test K6's unsubdivided halo (23 vertices), not the
        subdivided one (79) that ``halo`` prints."""
        path = write_graph(tmp_path, complete_graph(6))
        argv = ["verify", "--input", path, "--max-len", "2", "--samples", "20"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        (axioms,) = [c for c in json.loads(out)["checks"] if c["name"] == "halo-axioms"]
        assert axioms["details"]["planar"] is True
        code, out, _ = run(capsys, ["halo", "--input", path])
        assert code == 0
        assert json.loads(out)["planar"] is True
        code, out, _ = run(capsys, ["halo", "--input", path, "--format", "text"])
        assert code == 0
        assert "gamma vertices: 79\n" in out
        assert "\nplanar: true\n" in out


class TestParserReuse:
    """``main`` builds its parser once per process and reuses it: no call
    leaves anything behind for the next."""

    @pytest.fixture(autouse=True)
    def fresh_parser(self):
        build_parser.cache_clear()

    def verify_argv(self, tmp_path, figure_delta):
        path = write_graph(tmp_path, figure_delta)
        return ["verify", "--input", path, "--max-len", "1", "--samples", "5"]

    def test_built_once(self, tmp_path, capsys, figure_delta):
        argv = self.verify_argv(tmp_path, figure_delta)
        for _ in range(3):
            assert run(capsys, argv)[0] == 0
        info = build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 2)
        assert build_parser() is build_parser()

    def test_flags_do_not_leak(self, tmp_path, capsys, figure_delta):
        argv = self.verify_argv(tmp_path, figure_delta)
        alone = run(capsys, argv)
        build_parser.cache_clear()
        code, out, _ = run(capsys, argv + ["--timings", "--format", "text"])
        assert code == 0 and out.startswith("[pass]")
        code, out, _ = run(capsys, argv + ["--timings"])
        assert code == 0 and all("seconds" in c for c in json.loads(out)["checks"])
        after = run(capsys, argv)
        assert after == alone
        assert all("seconds" not in c for c in json.loads(after[1])["checks"])

    @pytest.mark.parametrize(
        "bad",
        [["bogus"], ["verify", "--max-len", "x"], ["verify", "--format", "dot"], []],
        ids=["unknown-command", "bad-int", "unoffered-format", "no-command"],
    )
    def test_usage_error_leaves_the_parser_as_it_was(
        self, tmp_path, capsys, figure_delta, bad
    ):
        argv = self.verify_argv(tmp_path, figure_delta)
        alone = run(capsys, argv)
        build_parser.cache_clear()
        if bad[:1] == ["verify"]:
            bad = argv + bad[1:]
        with pytest.raises(SystemExit) as exc:
            main(bad)
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""
        assert run(capsys, argv) == alone
        assert build_parser.cache_info().misses == 1


class TestMalformedInput:
    """Wrongly typed JSON values exit 2 with an error line, never a traceback."""

    def run_json(self, tmp_path, capsys, command, data):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(data))
        code, _, err = run(capsys, [command, "--input", str(path)])
        assert code == 2
        assert err.startswith("error:")
        return err

    def halo_data(self, figure_delta, figure_coloring):
        return halo_to_json_dict(build_halo(figure_delta, figure_coloring))

    def test_non_string_edge_endpoint(self, tmp_path, capsys):
        data = {"vertices": ["a", "b"], "edges": [["a", ["b"]]]}
        self.run_json(tmp_path, capsys, "color", data)

    @pytest.mark.parametrize("data", [[], 3, None], ids=["list", "number", "null"])
    def test_graph_not_an_object(self, tmp_path, capsys, data):
        err = self.run_json(tmp_path, capsys, "verify", data)
        assert err == "error: graph JSON must be an object\n"

    @pytest.mark.parametrize("flag", ["--input", "--coloring"])
    def test_missing_file_exit_2(self, tmp_path, capsys, figure_delta, flag):
        """A path that does not exist is an input error naming the path."""
        absent = tmp_path / "absent.json"
        graph = str(absent) if flag == "--input" else write_graph(tmp_path, figure_delta)
        argv = ["verify", "--input", graph]
        if flag == "--coloring":
            argv += ["--coloring", str(absent)]
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot read {absent}: ")

    def test_basepoints_as_list(self, tmp_path, capsys, figure_delta, figure_coloring):
        data = self.halo_data(figure_delta, figure_coloring)
        data["basepoints"] = list(data["basepoints"].values())
        self.run_json(tmp_path, capsys, "verify", data)

    def test_loop_as_integer(self, tmp_path, capsys, figure_delta, figure_coloring):
        data = self.halo_data(figure_delta, figure_coloring)
        data["loops"]["a"] = 7
        self.run_json(tmp_path, capsys, "verify", data)

    def test_unhashable_loop_entry(self, tmp_path, capsys, figure_delta, figure_coloring):
        data = self.halo_data(figure_delta, figure_coloring)
        data["loops"]["a"][1] = ["x"]
        self.run_json(tmp_path, capsys, "verify", data)

    def test_unhashable_basepoint(self, tmp_path, capsys, figure_delta, figure_coloring):
        data = self.halo_data(figure_delta, figure_coloring)
        data["basepoints"]["1"] = ["x"]
        self.run_json(tmp_path, capsys, "verify", data)

    def test_assignment_not_an_object(self, tmp_path, capsys, figure_delta, figure_coloring):
        data = self.halo_data(figure_delta, figure_coloring)
        data["coloring"]["assignment"] = 5
        self.run_json(tmp_path, capsys, "verify", data)

    @pytest.mark.parametrize("key", ["01", "1_0", " 1", "None"])
    def test_non_canonical_basepoint_color(
        self, tmp_path, capsys, figure_delta, figure_coloring, key
    ):
        data = self.halo_data(figure_delta, figure_coloring)
        data["basepoints"][key] = data["basepoints"]["1"]
        err = self.run_json(tmp_path, capsys, "verify", data)
        assert f"basepoint color {key!r} is not an integer in canonical form" in err

    def test_unhashable_color_is_improper(self, tmp_path, capsys, figure_delta, figure_coloring):
        data = self.halo_data(figure_delta, figure_coloring)
        data["coloring"]["assignment"]["a"] = [1]
        path = tmp_path / "input.json"
        path.write_text(json.dumps(data))
        code, _, err = run(capsys, ["verify", "--input", str(path)])
        assert code == 4
        assert err.startswith("error:")

    @pytest.mark.parametrize("color", [True, 1.0])
    def test_non_integer_color_is_improper(self, tmp_path, capsys, figure_delta, color):
        """A boolean colour fails like a float one: True equals 1 but is no
        colour."""
        graph = write_graph(tmp_path, figure_delta)
        coloring = tmp_path / "coloring.json"
        coloring.write_text(json.dumps({"assignment": {"a": color, "b": 2, "c": 3}}))
        code, out, err = run(capsys, ["verify", "--input", graph, "--coloring", str(coloring)])
        assert (code, out) == (4, "")
        assert err == "error: colors must be integers >= 1\n"

    @pytest.mark.parametrize(
        "content, message",
        [(b"\xff\xfe", "not UTF-8 text"), (b"[" * 200_000, "JSON nested too deep")],
        ids=["not-utf8", "deep"],
    )
    @pytest.mark.parametrize(
        "command",
        [["verify"], ["halo"], ["embed", "a"], ["verify", "--coloring"]],
        ids=["verify", "halo", "embed", "coloring"],
    )
    def test_unreadable_file_exit_2(self, tmp_path, capsys, figure_delta, command, content, message):
        """A file that is not UTF-8, or nests too deep for ``json``, is an
        input error naming the file, as ``--input`` or as ``--coloring``."""
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        if command[-1] == "--coloring":
            argv = [*command, str(bad), "--input", write_graph(tmp_path, figure_delta)]
        else:
            argv = [*command, "--input", str(bad)]
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {bad}: {message}")
        assert "Traceback" not in err


def _json_paths(data, prefix=()):
    """Key/index paths to every value nested in a JSON document."""
    if isinstance(data, dict):
        items = data.items()
    elif isinstance(data, list):
        items = enumerate(data)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from _json_paths(value, prefix + (key,))


_JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-2, 4)
    | st.floats(-2, 4)
    | st.text(alphabet="abcx_1~|", max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(alphabet="abc123", max_size=2), inner, max_size=3),
    max_leaves=4,
)


@st.composite
def _retyped(draw, document):
    """``document`` with one to three values replaced by values of another
    JSON type."""
    data = copy.deepcopy(document)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_json_paths(data))))
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        old = parent[path[-1]]
        parent[path[-1]] = draw(_JSON_VALUES.filter(lambda v: type(v) is not type(old)))
    return data


_FIGURE = SimpleGraph.make(["a", "b", "c"], [("a", "c")])
_FIGURE_HALO = build_halo(_FIGURE, Coloring.make(_FIGURE, {"a": 1, "b": 2, "c": 3}))


class TestMutatedInput:
    """Valid graph and halo JSON with values of the wrong type: the CLI
    answers with an exit code of its contract and never a traceback."""

    COMMANDS = (["color"], ["verify", "--max-len", "1", "--samples", "0"])

    def check(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "input.json"
            path.write_text(json.dumps(data))
            for command in self.COMMANDS:
                with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                    code = main([command[0], "--input", str(path), *command[1:]])
                assert code in (0, 2, 3, 4), (command, data)

    @settings(max_examples=60, deadline=None)
    @given(_retyped(graph_to_json_dict(_FIGURE)))
    def test_graph_json(self, data):
        self.check(data)

    @settings(max_examples=60, deadline=None)
    @given(_retyped(halo_to_json_dict(_FIGURE_HALO)))
    def test_halo_json(self, data):
        self.check(data)


def test_console_script_help():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "raagbraid", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "color" in proc.stdout and "verify" in proc.stdout


def test_verify_loads_no_networkx(tmp_path, figure_delta):
    """The CLI runs on the standard library alone: networkx is a test
    oracle, not a runtime dependency."""
    import os
    import subprocess
    import sys

    path = write_graph(tmp_path, figure_delta)
    script = (
        "import sys\n"
        "from raagbraid import cli\n"
        f"assert cli.main(['verify', '--input', {path!r}]) == 0\n"
        "assert 'networkx' not in sys.modules, 'networkx was imported'\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
