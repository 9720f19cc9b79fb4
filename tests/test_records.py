"""The record contract: the package's plain records are named tuples.

The records are ``HaloViolation``, ``HaloReport``, ``SubdivisionViolation``,
``SubdivisionReport``, ``Configuration``, ``Step``, ``ConfigEdgePath``,
``RelatorCheck``, ``HomomorphismReport``, ``InjectivityReport``,
``PinchEvent``, ``PinchTrace``, ``CounterexampleReport``, ``CheckResult``,
``VerificationReport`` and ``PinchWitness``.

Each record keeps its fields, defaults, properties and methods; its JSON
form is an object of its fields in declaration order; it cannot be
changed; equal values give equal records (and equal hashes, where the
fields are hashable). The only dataclasses left are the three classes
whose cached properties need an instance ``__dict__``, and ``GroupWord``,
which as a tuple would take on the tuple's ``+`` and iteration.
"""
import json
from dataclasses import is_dataclass

import pytest

from oracles import cycle_graph
from raagbraid import (
    CheckResult,
    Coloring,
    ConfigEdgePath,
    Configuration,
    CounterexampleReport,
    GroupWord,
    Halo,
    HaloReport,
    HaloViolation,
    HomomorphismReport,
    InjectivityReport,
    PinchEvent,
    PinchTrace,
    PinchWitness,
    RaagPresentation,
    SimpleGraph,
    Step,
    SubdivisionReport,
    SubdivisionViolation,
    VerificationReport,
    build_context,
    build_halo,
    check_homomorphism,
    counterexample_report,
    counterexample_word,
    detect_pinch,
    injectivity_spot_check,
    is_sufficiently_subdivided,
    pinch_trace,
    verify_halo,
    verify_suite,
)
from raagbraid import cli, configspace, embedding, errors, graphs, halo, raag
from raagbraid.embedding import RelatorCheck
from raagbraid.graphs import json_value


def _figure():
    delta = SimpleGraph.make(["a", "b", "c"], [("a", "c")])
    return delta, Coloring.make(delta, {"a": 1, "b": 2, "c": 3})


def _context():
    return build_context(*_figure())


def _broken_halo_report():
    h = build_halo(*_figure())
    broken = Halo(
        gamma=h.gamma,
        artin_loops=h.artin_loops[1:],
        basepoints=h.basepoints,
        coloring=h.coloring,
        delta=h.delta,
    )
    return verify_halo(broken)


def _unsubdivided_report():
    return is_sufficiently_subdivided(cycle_graph(3), 3)


def _unsquared_trace():
    delta, _ = _figure()
    return pinch_trace(counterexample_word(delta), _context(), squared=False)


def _suite():
    return verify_suite(*_figure(), max_len=2, sample_count=5)


#: each record class, with a function that computes one through the pipeline
RECORDS = {
    HaloViolation: lambda: _broken_halo_report().violations[0],
    HaloReport: _broken_halo_report,
    SubdivisionViolation: lambda: _unsubdivided_report().violations[0],
    SubdivisionReport: _unsubdivided_report,
    Configuration: lambda: _context().base,
    Step: lambda: _context().loop_path("a", 1).steps[0],
    ConfigEdgePath: lambda: _context().loop_path("a", 1),
    RelatorCheck: lambda: check_homomorphism(_context()).relators[0],
    HomomorphismReport: lambda: check_homomorphism(_context()),
    InjectivityReport: lambda: injectivity_spot_check(
        _context(), max_len=2, sample_count=5, seed=0
    ),
    PinchEvent: lambda: _unsquared_trace().events[0],
    PinchTrace: _unsquared_trace,
    CounterexampleReport: lambda: counterexample_report(_figure()[0]),
    CheckResult: lambda: _suite().checks[0],
    VerificationReport: _suite,
    PinchWitness: lambda: detect_pinch(
        GroupWord.parse("a c a^-1"), "a", RaagPresentation(_figure()[0])
    ),
}

#: records that hold a check's details, a dict, so they have no hash, and
#: its wall time, so two runs differ
CHECKS = {CheckResult, VerificationReport}

params = pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)


@params
def test_is_a_named_tuple(cls):
    record = RECORDS[cls]()
    assert type(record) is cls
    assert isinstance(record, tuple) and cls._fields
    assert not is_dataclass(record)


@params
def test_json_is_an_object_of_the_fields_in_order(cls):
    record = RECORDS[cls]()
    value = json_value(record)
    assert list(value) == list(cls._fields)
    if cls is PinchWitness:
        # a GroupWord is no record, and json_value leaves it as it is
        assert value.pop("inner") is record.inner
    # a tuple or a record left anywhere inside would come back as a list
    assert json.loads(json.dumps(value)) == value


@params
def test_fields_cannot_be_assigned(cls):
    record = RECORDS[cls]()
    with pytest.raises(AttributeError):
        setattr(record, cls._fields[0], None)
    with pytest.raises(AttributeError):
        record.not_a_field = None


@params
def test_equal_values_give_equal_records(cls):
    record = RECORDS[cls]()
    copy = cls(**{name: getattr(record, name) for name in cls._fields})
    assert copy == record and copy is not record
    if cls in CHECKS:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(copy) == hash(record)
        again = RECORDS[cls]()
        assert again == record and hash(again) == hash(record)


def test_nested_records_become_objects_and_tuples_arrays():
    violation = HaloViolation("loop-start", "loop of 'a' starts off x_1", ("a", "x_1"))
    assert json_value(HaloReport(False, (violation,))) == {
        "ok": False,
        "violations": [
            {"axiom": "loop-start", "message": "loop of 'a' starts off x_1", "witnesses": ["a", "x_1"]}
        ],
    }
    path = ConfigEdgePath(
        base=Configuration(("u", "w")),
        steps=(Step(("u", "v"), "u"), Step(("v", "x"), "v")),
    )
    assert json_value({"path": path, "pairs": [(1, 2)]}) == {
        "path": {
            "base": {"cells": ["u", "w"]},
            "steps": [
                {"edge": ["u", "v"], "source": "u"},
                {"edge": ["v", "x"], "source": "v"},
            ],
        },
        "pairs": [[1, 2]],
    }


def test_defaults_and_properties_are_kept():
    report = CounterexampleReport(applicable=False)
    assert report == (False, "", False, False, False)
    assert not report.ok
    assert report.to_json_dict() == {
        "applicable": False,
        "word": "",
        "nontrivial_in_source": False,
        "unsquared_image_trivial": False,
        "squared_image_nontrivial": False,
        "ok": False,
    }
    assert Configuration(("a", "b")).n == 2


def test_path_length_is_its_step_count():
    ctx = _context()
    path = ctx.loop_path("a", 1)
    assert len(path) == len(path.steps) > 0 and path
    empty = ctx.loop_path("a", 0)
    assert empty == ConfigEdgePath(base=ctx.base, steps=())
    assert len(empty) == 0 and not empty


def test_reports_are_falsy_exactly_when_they_fail():
    assert not _broken_halo_report() and not _unsubdivided_report()
    assert verify_halo(build_halo(*_figure()))
    assert _suite() and check_homomorphism(_context())


def test_only_the_cached_and_operator_classes_stay_dataclasses():
    kept = set()
    for module in (cli, configspace, embedding, errors, graphs, halo, raag):
        for name, obj in vars(module).items():
            if (
                not name.startswith("_")
                and isinstance(obj, type)
                and obj.__module__ == module.__name__
                and is_dataclass(obj)
            ):
                kept.add(obj)
    assert kept == {SimpleGraph, Coloring, Halo, GroupWord}
