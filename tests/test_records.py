"""``coneext.records.record`` against ``@dataclass(frozen=True)``: every
value class behaves as the frozen dataclass with the same fields would, and
no attribute of a record can be assigned or deleted."""

import ast
import copy
import dataclasses
import functools
import pickle
from fractions import Fraction
from pathlib import Path

import pytest

import coneext
from coneext.cones import BasedCone, Cone
from coneext.fixtures import based_cone, cone, fixture_text, polytope
from coneext.formats import parse_point_file
from coneext.hierarchy import (EbOutcome, EbTerm, ExtkVerdict, HierarchyResult,
                               dual_hierarchy_k, ext_k_membership,
                               is_entanglement_breaking, point_tensor)
from coneext.lp import ConicOutcome, LpOutcome, LpProblem, conic_membership, solve
from coneext.polytopes import (FactorFailure, Polytope, SimplexFactorization,
                               factor_as_simplices)
from coneext.quantum import AppendixClaim, verify_appendix
from coneext.records import FrozenRecordError, record
from coneext.scalars import QuadScalar
from coneext.tensors import DUAL, PRIMAL, DenseTensor, Slot, from_vector


def _point(name, a, b):
    return point_tensor(a, b, parse_point_file(fixture_text(name))[2])


_CLASSES = [Slot, DenseTensor, Cone, BasedCone, Polytope, SimplexFactorization,
            FactorFailure, LpOutcome, ConicOutcome, ExtkVerdict, EbTerm, EbOutcome,
            HierarchyResult, AppendixClaim]


@functools.cache
def _samples():
    """Record class -> instances made by the package's own decisions, some
    equal to each other, most not."""
    sq, skew, based_sq = cone("square"), based_cone("square-skew"), based_cone("square")
    verdicts = [ext_k_membership(_point(p, sq, sq), sq, skew, k)
                for p, k in (("gap-k2.pt", 2), ("gap-k2.pt", 3), ("box.pt", 2))]
    eb = [is_entanglement_breaking(based_cone(name), k)
          for name, k in (("triangle", 1), ("square", 1), ("square", 2))]
    claims = verify_appendix()
    return {
        Slot: [Slot(2, PRIMAL), Slot(2, DUAL), Slot(3, PRIMAL), Slot(2, PRIMAL)],
        DenseTensor: [from_vector((1, 2)), from_vector((1, 2), DUAL),
                      DenseTensor((Slot(2, PRIMAL),), [QuadScalar(1), QuadScalar(2)]),
                      DenseTensor((Slot(1, PRIMAL),), [QuadScalar(1, 1)])],
        Cone: [cone("square"), cone("triangle"), cone("square")],
        BasedCone: [based_sq, skew, based_cone("cube")],
        Polytope: [polytope("prism"), polytope("square"), based_sq.base],
        SimplexFactorization: [factor_as_simplices(polytope("prism")),
                               factor_as_simplices(polytope("square"))],
        FactorFailure: [factor_as_simplices(polytope("pentagon")), FactorFailure("x"),
                        FactorFailure("x")],
        LpOutcome: [solve(LpProblem.build(1, eq_rows=[((1,), Fraction(1, 2))],
                                          nonneg=[0])),
                    solve(LpProblem.build(1, eq_rows=[((1,), -1)], nonneg=[0])),
                    LpOutcome("feasible", point=(Fraction(1, 2),))],
        ConicOutcome: [conic_membership((1, 1), [(1, 0), (0, 1)]),
                       conic_membership((1, -1), [(1, 0), (0, 1)])],
        ExtkVerdict: verdicts,
        EbTerm: [*eb[0].terms[:2], *eb[2].terms[:2]],
        EbOutcome: eb,
        HierarchyResult: [dual_hierarchy_k(_point("box-interior.pt", sq, based_sq.cone),
                                           sq, based_sq),
                          HierarchyResult(1, (Fraction(1),), ((0, (0,)),))],
        AppendixClaim: list(claims),
    }


def _dataclass_twin(cls):
    """A frozen dataclass with cls's name, fields and defaults; it keeps a
    ``__repr__`` cls defines itself, as the dataclass decorator would."""
    own, slots = vars(cls), vars(cls).get("__slots__", ())
    specs = [(name, object, own[name]) if name in own and name not in slots
             else (name, object) for name in cls.__match_args__]
    namespace = {"__repr__": cls.__repr__} if cls is DenseTensor else {}
    return dataclasses.make_dataclass(cls.__qualname__, specs, frozen=True,
                                      namespace=namespace)


def test_every_record_class_has_samples():
    src = Path(coneext.__file__).parent
    declared = {node.name for path in src.glob("*.py")
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.ClassDef)
                and any(getattr(d, "id", None) == "record" for d in node.decorator_list)}
    assert declared == {cls.__name__ for cls in _CLASSES}
    assert list(_samples()) == _CLASSES
    for cls, values in _samples().items():
        assert len(values) >= 2 and all(type(v) is cls for v in values), cls


@pytest.mark.parametrize("cls", _CLASSES, ids=lambda c: c.__name__)
def test_a_record_behaves_as_the_frozen_dataclass(cls):
    twin = _dataclass_twin(cls)
    values = _samples()[cls]
    twins = [twin(*(getattr(v, f) for f in cls.__match_args__)) for v in values]
    for v, t in zip(values, twins):
        assert repr(v) == repr(t)
        assert hash(v) == hash(t)
        assert v != t and t != v and not v == t
        assert v == cls(*(getattr(v, f) for f in cls.__match_args__))
    for i, (v, t) in enumerate(zip(values, twins)):
        for w, u in zip(values[i:], twins[i:]):
            assert (v == w) == (t == u) and (v != w) == (t != u)
    assert len(set(values)) == len(set(twins))


def test_samples_include_equal_and_unequal_pairs():
    equal = [cls for cls, values in _samples().items()
             if any(v == w for i, v in enumerate(values) for w in values[i + 1:])]
    assert {Slot, DenseTensor, Cone, FactorFailure} <= set(equal)
    assert all(len(set(values)) >= 2 for values in _samples().values())


@pytest.mark.parametrize("value", [
    from_vector((1, Fraction(1, 2))),
    DenseTensor((Slot(2, PRIMAL),), [QuadScalar(1, 1), QuadScalar(3)]),
    LpOutcome("infeasible", certificate=(Fraction(-1, 3), Fraction(2))),
], ids=["fraction-tensor", "quad-tensor", "lp-outcome"])
def test_pickle_and_copy_round_trip(value):
    for back in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
        assert type(back) is type(value) and back == value and repr(back) == repr(value)
        assert hash(back) == hash(value)


def test_a_polytope_with_cached_properties_round_trips():
    p = polytope("prism")
    values, incidence, factorization = p.values, p.incidence, p.factorization
    for back in (pickle.loads(pickle.dumps(p)), copy.deepcopy(p)):
        assert back == p and back is not p
        assert back.values == values and back.incidence == incidence
        assert back.factorization == factorization


@pytest.mark.parametrize("value", [
    from_vector((1, 2)), Slot(2, PRIMAL), LpOutcome("feasible", point=(Fraction(1),)),
], ids=["DenseTensor", "Slot", "LpOutcome"])
@pytest.mark.parametrize("name", ["foo", "entries", "dim", "status"])
def test_no_attribute_of_a_record_can_be_assigned_or_deleted(value, name):
    """Any name raises the record's AttributeError subclass; a slotted
    tensor used to raise ``TypeError`` from ``super()`` for a non-field."""
    before = repr(value), hash(value)
    with pytest.raises(FrozenRecordError, match=f"cannot assign to field '{name}'"):
        setattr(value, name, 1)
    with pytest.raises(FrozenRecordError, match=f"cannot delete field '{name}'"):
        delattr(value, name)
    assert issubclass(FrozenRecordError, AttributeError)
    assert (repr(value), hash(value)) == before


def test_record_reads_fields_defaults_and_post_init():
    calls = []

    @record
    class Point:
        __slots__ = ("x", "y", "label")

        x: int
        y: int
        label: str

        def __post_init__(self):
            calls.append((self.x, self.y))

    @record
    class Tagged:
        name: str
        tag: object = None
        kind: str = "plain"

        def __repr__(self):
            return f"<{self.name}>"

    assert Point.__match_args__ == ("x", "y", "label")
    assert Point(1, 2, label="a") == Point(1, y=2, label="a") and calls == [(1, 2), (1, 2)]
    assert not hasattr(Point(1, 2, "a"), "__dict__")
    assert repr(Point(1, 2, "a")) == f"{Point.__qualname__}(x=1, y=2, label='a')"
    t = Tagged("n")
    assert (t.tag, t.kind) == (None, "plain") and repr(t) == "<n>"
    assert Tagged("n", kind="other") != t and Tagged("n") == t
    with pytest.raises(TypeError):
        Point(1, 2)
    with pytest.raises(TypeError):
        Tagged("n", bogus=1)
