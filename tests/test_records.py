"""The record contract: the package's plain records are named tuples, and
its four value classes are plain classes.

The records are ``HaloViolation``, ``HaloReport``, ``SubdivisionViolation``,
``SubdivisionReport``, ``Configuration``, ``Step``, ``ConfigEdgePath``,
``RelatorCheck``, ``HomomorphismReport``, ``InjectivityReport``,
``PinchEvent``, ``PinchTrace``, ``CounterexampleReport``, ``CheckResult``,
``VerificationReport`` and ``PinchWitness``: ``collections.namedtuple``
subclasses with ``__slots__ = ()``. Each keeps its fields, defaults,
properties and methods; its JSON form is an object of its fields in
declaration order; it cannot be changed; equal values give equal records
(and equal hashes, where the fields are hashable).

The value classes are ``SimpleGraph``, ``Coloring``, ``Halo`` and
``GroupWord``. Equality holds between instances of one class with equal
fields, the hash and the repr are those of the fields, a field cannot be
assigned or deleted, and copying and pickling rebuild an equal value.

No class of the package is a dataclass, and importing the CLI loads
neither ``dataclasses`` nor ``typing`` (nor ``inspect``, which
``dataclasses`` imports): each costs a cold command start-up time.
"""
import copy
import json
import os
import pickle
import subprocess
import sys
from dataclasses import is_dataclass
from pathlib import Path

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


MODULES = (cli, configspace, embedding, errors, graphs, halo, raag)


def test_no_public_class_is_a_dataclass():
    classes = [
        obj
        for module in MODULES
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and isinstance(obj, type)
        and obj.__module__ == module.__name__
    ]
    assert {SimpleGraph, Coloring, Halo, GroupWord} <= set(classes)
    assert not [cls for cls in classes if is_dataclass(cls)]


def test_cold_cli_import_loads_neither_dataclasses_nor_typing():
    code = (
        "import sys, raagbraid.cli; "
        "print(sorted({'dataclasses', 'typing', 'inspect'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": str(Path(raag.__file__).parents[1])},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out == "[]\n"


def _single_vertex():
    delta = SimpleGraph.make(["a"])
    return delta, Coloring.make(delta, {"a": 1})


def _graph():
    g = _figure()[0]
    # cached in the instance dict, which pickling leaves behind
    g.adjacency, g._index, g._adj
    return g


#: each value class, with a function that builds one, its fields and its repr
VALUES = {
    SimpleGraph: (
        _graph,
        ("vertices", "edges"),
        "SimpleGraph(vertices=('a', 'b', 'c'), edges=(('a', 'c'),))",
    ),
    Coloring: (
        lambda: _figure()[1],
        ("assignment", "color_count"),
        "Coloring(assignment=(('a', 1), ('b', 2), ('c', 3)), color_count=3)",
    ),
    Halo: (
        lambda: build_halo(*_single_vertex()),
        ("gamma", "artin_loops", "basepoints", "coloring", "delta"),
        "Halo(gamma=SimpleGraph(vertices=('p~a~1', 'p~a~2', 'x_1'), edges=(('p~a~1', 'p~a~2'),"
        " ('p~a~1', 'x_1'), ('p~a~2', 'x_1'))), artin_loops=(('a', ('x_1', 'p~a~1', 'p~a~2',"
        " 'x_1')),), basepoints=((1, 'x_1'),), coloring=Coloring(assignment=(('a', 1),),"
        " color_count=1), delta=SimpleGraph(vertices=('a',), edges=()))",
    ),
    GroupWord: (
        lambda: GroupWord.parse("a b^-1"),
        ("letters",),
        "GroupWord(letters=(('a', 1), ('b', -1)))",
    ),
}

value_params = pytest.mark.parametrize("cls", list(VALUES), ids=lambda cls: cls.__name__)


@value_params
def test_value_equality_and_hash_follow_the_fields(cls):
    build, names, _ = VALUES[cls]
    value, again = build(), build()
    assert value == again and value is not again and not value != again
    fields = tuple(getattr(value, name) for name in names)
    assert hash(value) == hash(again) == hash(fields)
    assert cls(*fields) == cls(**dict(zip(names, fields))) == value


@value_params
def test_a_value_is_unequal_to_another_class(cls):
    build, names, _ = VALUES[cls]
    value = build()
    fields = tuple(getattr(value, name) for name in names)
    others = [fields, object(), None] + [VALUES[other][0]() for other in VALUES if other is not cls]
    for other in others:
        assert value != other and other != value
        assert not value == other


@value_params
def test_value_fields_cannot_be_assigned_or_deleted(cls):
    build, names, _ = VALUES[cls]
    value = build()
    for name in names:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.not_a_field = None
    assert build() == value


@value_params
def test_value_repr_names_the_fields(cls):
    build, _, text = VALUES[cls]
    assert repr(build()) == text


def test_cached_properties_are_computed_once():
    g = _figure()[0]
    assert g.adjacency is g.adjacency
    assert g._index is g._index and g._adj is g._adj
    coloring = _figure()[1]
    assert coloring.as_dict is coloring.as_dict
    h = build_halo(*_figure())
    assert h.loops is h.loops


@value_params
@pytest.mark.parametrize(
    "round_trip",
    [copy.copy, copy.deepcopy, lambda value: pickle.loads(pickle.dumps(value))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_copy_and_pickle_give_an_equal_value(cls, round_trip):
    value = VALUES[cls][0]()
    again = round_trip(value)
    assert type(again) is cls and again == value
    # cached properties stay behind: the copy rebuilds them on use
    assert not getattr(again, "__dict__", None)
    assert hash(again) == hash(value)


def test_the_default_word_is_the_empty_word():
    assert GroupWord() == GroupWord(()) == GroupWord(letters=()) == GroupWord.parse("")
    assert repr(GroupWord()) == "GroupWord(letters=())" and not GroupWord()
