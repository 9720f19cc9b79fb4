"""Smoke test of the benchmark at a tiny size.

Run from the repository root:

    python3 -m pytest bench/tests -q
"""
import json
import math
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(inputs, "NAMED", ("figure", "C6"))
    monkeypatch.setattr(inputs, "VERIFY_VERTICES", (4, 5))
    monkeypatch.setattr(inputs, "VERIFY_PARTS", (2,))
    monkeypatch.setattr(inputs, "EMBED_LENGTHS", (6, 8))
    monkeypatch.setattr(inputs, "EMBED_WORDS", 4)
    monkeypatch.setattr(inputs, "SCALE_VERTICES", (6, 9))


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_every_named_metric_is_emitted(tiny, workload, trace):
    report, result = run.run(workload, seed=3, seconds=0.5, trace=trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], report["problems"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    named = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in named
    }
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    if not trace:
        assert all(result["metrics"][m]["value"] > 0 for m in result["metrics"])
    assert report["inputs"] and all("digest" in e for e in report["inputs"])
    assert all(e["s"] > 0 and e["wall_s"] > 0 for e in report["inputs"])


def test_times_are_rescaled_by_the_reference_loop():
    op = run.Op("x", wall_s=0.5, ok=True, work=1.0, output=b"")
    op.speed = run.speed(2 * run.REFERENCE_S, 2 * run.REFERENCE_S)
    assert op.seconds == 0.25
    assert run.reference_loop() == run.reference_loop()


def test_fixing_a_failure_raises_no_percentile():
    rng = random.Random(0)
    for _ in range(500):
        times = [rng.random() for _ in range(rng.randint(1, 40))]
        failed = list(times)
        failed[rng.randrange(len(failed))] = math.inf
        for q in (50, 90):
            assert run.percentile(times, q) <= run.percentile(failed, q)


def test_forced_failure_is_counted_as_infinite(tiny, monkeypatch):
    real_import = run.import_program

    def import_with_failure():
        rb = real_import()
        real_suite = rb.embedding.verify_suite

        def suite(delta, coloring, **kwargs):
            if delta.vertices == ("a", "b", "c"):
                raise rb.SizeExceededError("forced")
            return real_suite(delta, coloring, **kwargs)

        rb.embedding.verify_suite = suite
        return rb

    monkeypatch.setattr(run, "import_program", import_with_failure)
    report, result = run.run("verify", seed=3, seconds=0.5, trace=False)
    assert result["correct"]
    assert report["failed_inputs"] == ["figure"]
    assert result["failed"] == report["sessions"]
    assert result["attempted"] == report["sessions"] * len(report["inputs"])

    fixed = [e["s"] for e in report["inputs"]]
    with_failure = [math.inf if e["id"] == "figure" else e["s"] for e in report["inputs"]]
    for q in (50, 90):
        emitted = result["metrics"][f"p{q}_s"]["value"]
        expected = run.percentile(with_failure, q)
        assert emitted == (expected if math.isfinite(expected) else None)
        assert run.percentile(fixed, q) <= expected


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_inputs_follow_the_seed():
    assert inputs.verify_corpus(4) == inputs.verify_corpus(4)
    assert inputs.embed_words(4) == inputs.embed_words(4)
    assert inputs.scale_corpus(4) == inputs.scale_corpus(4)
    assert inputs.embed_words(4) != inputs.embed_words(5)
    for word in inputs.embed_words(4):
        sums = {}
        for g, s in word.letters:
            sums[g] = sums.get(g, 0) + s
        assert any(sums.values()) != word.trivial
