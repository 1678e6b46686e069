"""Slot bookkeeping: permutation action, symmetric projection, contractions."""

import inspect
import itertools
import random
from fractions import Fraction
from math import comb

import pytest

import coneext.tensors as tensors
from coneext.linalg import rank
from coneext.records import FrozenRecordError
from coneext.scalars import QuadScalar
from coneext.tensors import (DUAL, PRIMAL, DenseTensor, Slot, basis_vector,
                             contract_slot, from_vector, kron, pairing,
                             reorder_slots, sym_basis, symmetric_project)


def _random_tensor(rng, k, dim, variance=PRIMAL, span=5):
    slots = tuple(Slot(dim, variance) for _ in range(k))
    size = dim ** k
    entries = [Fraction(rng.randint(-span, span), rng.randint(1, 3)) for _ in range(size)]
    return DenseTensor(slots, entries)


def _compose(sigma, tau):
    # apply tau first, then sigma
    return tuple(sigma[tau[i]] for i in range(len(sigma)))


def _permute(t, sigma):
    """Symmetric-group action: slot j of the output holds the factor that was
    in slot sigma^-1(j), i.e. reorder_slots by the inverse permutation."""
    inv = [0] * len(sigma)
    for i, s in enumerate(sigma):
        inv[s] = i
    return reorder_slots(t, inv)


def test_identity_permutation_fixes_everything():
    rng = random.Random(2)
    t = _random_tensor(rng, 3, 2)
    assert _permute(t, (0, 1, 2)) == t


def test_transposition_on_pure_tensor():
    e1 = basis_vector(2, 0)
    e2 = basis_vector(2, 1)
    swapped = _permute(kron(e1, e2), (1, 0))
    assert swapped == kron(e2, e1)


def test_permutation_action_composes():
    rng = random.Random(41)
    for _ in range(40):
        k = rng.choice((3, 4))
        t = _random_tensor(rng, k, 2)
        sigma = tuple(rng.sample(range(k), k))
        tau = tuple(rng.sample(range(k), k))
        lhs = _permute(_permute(t, tau), sigma)
        assert lhs == _permute(t, _compose(sigma, tau))


def test_reorder_needs_a_permutation():
    t = kron(basis_vector(2, 0), basis_vector(3, 0))
    assert reorder_slots(t, (1, 0)) == kron(basis_vector(3, 0), basis_vector(2, 0))
    with pytest.raises(ValueError):
        reorder_slots(t, (0, 0))


def test_symmetric_tensors_are_permutation_fixed():
    rng = random.Random(43)
    for _ in range(20):
        k = rng.choice((2, 3))
        s = symmetric_project(_random_tensor(rng, k, 3))
        for sigma in itertools.permutations(range(k)):
            assert _permute(s, sigma) == s


def test_projection_idempotent_up_to_k4():
    rng = random.Random(47)
    for k in (1, 2, 3, 4):
        t = _random_tensor(rng, k, 2)
        p = symmetric_project(t)
        assert symmetric_project(p) == p


def _permutation_average(t, chosen):
    """symmetric_project by its definition: the mean of reorder_slots over
    every permutation of the chosen slots, k! copies."""
    terms = []
    for perm in itertools.permutations(chosen):
        full = list(range(len(t.slots)))
        for pos, src in zip(chosen, perm):
            full[pos] = src
        terms.append(reorder_slots(t, full))
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    return total.scale(Fraction(1, len(terms)))


def test_projection_is_the_permutation_average():
    """On seeded tensors with mixed slots, a symmetrized subset of up to four
    identical slots, and Fraction, int or QuadScalar entries, the orbit
    average equals the k!-term average entry for entry, types included."""
    rng = random.Random(61)
    kinds = {
        "fraction": lambda: Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
        "int": lambda: rng.randint(-5, 5),
        "quad": lambda: QuadScalar(Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
                                   Fraction(rng.randint(-5, 5), rng.randint(1, 3))),
    }
    for _ in range(60):
        count = rng.randint(1, 5)
        chosen = sorted(rng.sample(range(count), rng.randint(1, min(count, 4))))
        shared = Slot(rng.randint(1, 3), rng.choice((PRIMAL, DUAL)))
        slots = [shared if i in chosen else
                 Slot(rng.randint(1, 3), rng.choice((PRIMAL, DUAL)))
                 for i in range(count)]
        make = kinds[rng.choice(sorted(kinds))]
        size = 1
        for s in slots:
            size *= s.dim
        t = DenseTensor(slots, [make() for _ in range(size)])
        order = rng.sample(chosen, len(chosen))
        got = symmetric_project(t, order)
        want = _permutation_average(t, chosen)
        assert got == want
        assert [type(e) for e in got.entries] == [type(e) for e in want.entries]


def test_projection_beyond_eight_slots():
    """Nine slots of dimension 2: the result is idempotent, fixed by every
    adjacent transposition, and each entry is the mean of its orbit."""
    rng = random.Random(67)
    t = _random_tensor(rng, 9, 2)
    p = symmetric_project(t)
    assert symmetric_project(p) == p
    for i in range(8):
        swap = list(range(9))
        swap[i], swap[i + 1] = swap[i + 1], swap[i]
        assert reorder_slots(p, swap) == p
    one_hot = [tuple(int(j == i) for j in range(9)) for i in range(9)]
    assert p[one_hot[0]] == sum(t[m] for m in one_hot) / 9


def test_projection_two_element_average():
    e1 = basis_vector(2, 0)
    e2 = basis_vector(2, 1)
    p = symmetric_project(kron(e1, e2))
    expected = (kron(e1, e2) + kron(e2, e1)).scale(Fraction(1, 2))
    assert p == expected


def test_projection_self_adjoint():
    rng = random.Random(53)
    for _ in range(30):
        k = rng.choice((2, 3))
        s = _random_tensor(rng, k, 2, DUAL)
        t = _random_tensor(rng, k, 2, PRIMAL)
        assert pairing(symmetric_project(s), t) == pairing(s, symmetric_project(t))


def test_kron_entry_layout():
    a = from_vector((1, 1, 0))
    b = from_vector((1, 0, 1))
    t = kron(a, b)
    ones = {(0, 0), (0, 2), (1, 0), (1, 2)}
    for idx in itertools.product(*(range(s.dim) for s in t.slots)):
        assert t[idx] == (1 if idx in ones else 0)


def test_kron_with_scalar_is_identity():
    one = DenseTensor((), (Fraction(1),))
    rng = random.Random(59)
    t = _random_tensor(rng, 2, 3)
    assert kron(one, t) == t
    assert kron(t, one) == t


def test_dual_pair_kron_oracle():
    rng = random.Random(61)
    for _ in range(50):
        f = _random_tensor(rng, 1, 3, DUAL)
        g = _random_tensor(rng, 1, 3, DUAL)
        x = _random_tensor(rng, 1, 3)
        y = _random_tensor(rng, 1, 3)
        assert pairing(kron(f, g), kron(x, y)) == pairing(f, x) * pairing(g, y)


def test_contract_single_slot():
    phi = from_vector((1, 0, 0), DUAL)
    x = from_vector((1, 1, 0))
    out = contract_slot(x, 0, phi)
    assert out.slots == ()
    assert out.entries == (Fraction(1),)


def test_contract_power_with_normalizing_form():
    phi = from_vector((1, 0, 0), DUAL)
    x = from_vector((1, -2, 3))
    t = kron(x, x, x)
    for _ in range(3):
        t = contract_slot(t, 0, phi)
    assert t.entries == (Fraction(1),)


def test_contract_is_termwise():
    rng = random.Random(67)
    phi = from_vector(tuple(rng.randint(-3, 3) for _ in range(3)), DUAL)
    pairs = [(_random_tensor(rng, 1, 2), _random_tensor(rng, 1, 3)) for _ in range(4)]
    total = None
    for a, b in pairs:
        t = kron(a, b)
        total = t if total is None else total + t
    contracted = contract_slot(total, 1, phi)
    expected = None
    for a, b in pairs:
        t = a.scale(pairing(phi, b))
        expected = t if expected is None else expected + t
    assert contracted == expected


def test_contract_variance_mismatch():
    x = from_vector((1, 0))
    with pytest.raises(ValueError):
        contract_slot(kron(x, x), 0, from_vector((1, 0)))


def test_sym_basis_count_and_rank():
    for n, k in ((2, 2), (3, 2), (2, 3), (3, 3), (4, 2)):
        basis = sym_basis(n, k)
        assert len(basis) == comb(n + k - 1, k)
        rows = [t.entries for t in basis]
        assert rank(rows) == len(basis)
        for t in basis:
            assert symmetric_project(t) == t


def test_sym_basis_n2_k2_explicit():
    entries = {t.entries for t in sym_basis(2, 2)}
    h = Fraction(1, 2)
    assert entries == {
        (Fraction(1), Fraction(0), Fraction(0), Fraction(0)),
        (Fraction(0), h, h, Fraction(0)),
        (Fraction(0), Fraction(0), Fraction(0), Fraction(1)),
    }


def test_pairing_is_flat_dot():
    rng = random.Random(71)
    s = _random_tensor(rng, 2, 3, DUAL)
    t = _random_tensor(rng, 2, 3)
    assert pairing(s, t) == sum(a * b for a, b in zip(s.entries, t.entries))


def test_zero_tensor_and_entry_count_check():
    z = DenseTensor((Slot(2, PRIMAL), Slot(3, PRIMAL)), [Fraction(0)] * 6)
    assert z.is_zero()
    with pytest.raises(ValueError):
        DenseTensor((Slot(2, PRIMAL),), (1, 2, 3))


@pytest.mark.parametrize("build,error", [
    (lambda: Slot(2, "covariant"), ValueError),
    (lambda: Slot(0, PRIMAL), ValueError),
    (lambda: from_vector((1, 2)).flat_index((0, 0)), ValueError),
    (lambda: from_vector((1, 2)).flat_index((2,)), IndexError),
    (lambda: from_vector((1, 2)) + from_vector((1, 2), DUAL), ValueError),
    (lambda: kron(), ValueError),
    (lambda: symmetric_project(kron(from_vector((1, 2)), from_vector((1, 2, 3)))),
     ValueError),
    (lambda: contract_slot(from_vector((1, 2)), 0,
                           kron(from_vector((1, 1), DUAL), from_vector((1, 1), DUAL))),
     ValueError),
    (lambda: pairing(from_vector((1, 2)), from_vector((1, 2))), ValueError),
])
def test_input_checks_raise(build, error):
    with pytest.raises(error):
        build()


def test_dense_tensor_is_a_frozen_hashable_value():
    """DenseTensor is declared like Slot, as a frozen record: no attribute
    can be assigned, and equal tensors hash equal, Fraction and QuadScalar
    entries alike."""
    t = from_vector((1, 2))
    for name in ("entries", "foo"):
        with pytest.raises(FrozenRecordError):
            setattr(t, name, (Fraction(3), Fraction(4)))
    assert t.entries == (1, 2) and not hasattr(t, "__dict__")
    assert hash(t) == hash(from_vector((1, 2)))
    quad = DenseTensor(t.slots, [QuadScalar(1), QuadScalar(2)])
    assert quad == t and hash(quad) == hash(t)
    assert DenseTensor.__match_args__ == ("slots", "entries")
    assert DenseTensor.__slots__ == ("slots", "entries")
    source = inspect.getsource(tensors)
    for name in ("__setattr__", "__sub__", "__neg__"):
        assert f"def {name}" not in source
