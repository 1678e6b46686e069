"""Dense tensors over finite-dimensional rational vector spaces.

A tensor carries an ordered list of slots, each a (dimension, variance)
pair; entries are stored flat in row-major order.  Contraction pairs a
primal slot against a dual slot of the same dimension.  Entries are ints
or Fractions in the cone machinery (an Ext_k witness is ints); the
container itself only needs a field, so Q(sqrt2) scalars work too.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from operator import mul

from .records import record

PRIMAL = "primal"
DUAL = "dual"


@record
class Slot:
    dim: int
    variance: str

    def __post_init__(self):
        if self.variance not in (PRIMAL, DUAL):
            raise ValueError(f"bad variance {self.variance!r}")
        if self.dim < 1:
            raise ValueError("slot dimension must be positive")

    @property
    def dual(self):
        return Slot(self.dim, DUAL if self.variance == PRIMAL else PRIMAL)


def _strides(slots):
    strides = [1] * len(slots)
    for i in range(len(slots) - 2, -1, -1):
        strides[i] = strides[i + 1] * slots[i + 1].dim
    return strides


@record
class DenseTensor:
    __slots__ = ("slots", "entries")

    slots: tuple
    entries: tuple

    def __post_init__(self):
        object.__setattr__(self, "slots", tuple(self.slots))
        object.__setattr__(self, "entries", tuple(self.entries))
        size = 1
        for s in self.slots:
            size *= s.dim
        if len(self.entries) != size:
            raise ValueError(f"expected {size} entries, got {len(self.entries)}")

    # -- indexing -----------------------------------------------------------

    def flat_index(self, multi):
        if len(multi) != len(self.slots):
            raise ValueError("index arity mismatch")
        idx = 0
        for i, (j, s, st) in enumerate(zip(multi, self.slots, _strides(self.slots))):
            if not 0 <= j < s.dim:
                raise IndexError(f"index {j} out of range for slot {i}")
            idx += j * st
        return idx

    def __getitem__(self, multi):
        if isinstance(multi, int):
            multi = (multi,)
        return self.entries[self.flat_index(multi)]

    # -- algebra ------------------------------------------------------------

    def __add__(self, other):
        if self.slots != other.slots:
            raise ValueError("slot mismatch in tensor sum")
        return DenseTensor(self.slots, tuple(a + b for a, b in zip(self.entries, other.entries)))

    def scale(self, c):
        return DenseTensor(self.slots, tuple(c * a for a in self.entries))

    def __repr__(self):
        shape = ",".join(f"{s.dim}{'*' if s.variance == DUAL else ''}" for s in self.slots)
        return f"DenseTensor[{shape}]"


def from_vector(entries, variance=PRIMAL):
    entries = tuple(Fraction(e) for e in entries)
    return DenseTensor((Slot(len(entries), variance),), entries)


def kron(*tensors):
    """Tensor product; slots concatenate, entries multiply (row-major)."""
    if not tensors:
        raise ValueError("kron of nothing")
    result = tensors[0]
    for t in tensors[1:]:
        entries = tuple(a * b for a in result.entries for b in t.entries)
        result = DenseTensor(result.slots + t.slots, entries)
    return result


def reorder_slots(t, perm):
    """Raw slot reordering: output slot j is input slot perm[j]."""
    perm = tuple(perm)
    if sorted(perm) != list(range(len(t.slots))):
        raise ValueError("not a permutation")
    slots = tuple(t.slots[p] for p in perm)
    # input slot perm[j] moves with the stride of output slot j; walking the
    # input entries in row-major order, each lands at the sum of its offsets
    moved = [0] * len(perm)
    for j, st in enumerate(_strides(slots)):
        moved[perm[j]] = st
    offsets = itertools.product(*(range(0, s.dim * st, st)
                                  for s, st in zip(t.slots, moved)))
    entries = [None] * len(t.entries)
    for off, e in zip(offsets, t.entries):
        entries[sum(off)] = e
    return DenseTensor(slots, entries)


def _orbits(slots, chosen):
    """Flat positions grouped by agreeing off the chosen slots and carrying
    the same multiset on them, in order of first appearance."""
    orbits = {}
    for pos, multi in enumerate(itertools.product(*(range(s.dim) for s in slots))):
        key = list(multi)
        for i, j in zip(chosen, sorted(multi[i] for i in chosen)):
            key[i] = j
        orbits.setdefault(tuple(key), []).append(pos)
    return orbits.values()


def symmetric_project(t, slot_indices=None):
    """Average of reorder_slots over every permutation of the given slots
    (all slots by default), which must share dimension and variance: each
    entry becomes the mean of its orbit, so no permutation is enumerated."""
    chosen = tuple(range(len(t.slots)) if slot_indices is None else slot_indices)
    if len({(t.slots[i].dim, t.slots[i].variance) for i in chosen}) > 1:
        raise ValueError("symmetrized slots must be identical")
    entries = [None] * len(t.entries)
    for orbit in _orbits(t.slots, chosen):
        total = sum((t.entries[pos] for pos in orbit[1:]), t.entries[orbit[0]])
        mean = Fraction(1, len(orbit)) * total
        for pos in orbit:
            entries[pos] = mean
    return DenseTensor(t.slots, entries)


def contract_slot(t, slot_index, f):
    """Contract slot ``slot_index`` of ``t`` against the 1-slot tensor ``f``
    of opposite variance and equal dimension."""
    if len(f.slots) != 1:
        raise ValueError("contraction partner must have exactly one slot")
    s = t.slots[slot_index]
    if f.slots[0] != s.dual:
        raise ValueError("contraction needs equal dimension and opposite variance")
    rest = [i for i in range(len(t.slots)) if i != slot_index]
    e = reorder_slots(t, rest + [slot_index]).entries
    return DenseTensor(t.slots[:slot_index] + t.slots[slot_index + 1:],
                       [sum(map(mul, e[b:b + s.dim], f.entries))
                        for b in range(0, len(e), s.dim)])


def pairing(s, t):
    """Full contraction of two tensors with elementwise dual slot lists."""
    if len(s.slots) != len(t.slots) or any(a != b.dual for a, b in zip(s.slots, t.slots)):
        raise ValueError("pairing needs elementwise dual slots")
    return sum((a * b for a, b in zip(s.entries, t.entries)), start=s.entries[0] * 0)


def sym_basis(n, k, variance=PRIMAL):
    """Basis of the symmetric subspace of the k-fold power of an n-dim space.

    One element per size-k multiset of [n], in combinations_with_replacement
    order (a multiset first appears as its sorted arrangement): the mean of
    the unit tensors over its arrangements.  Each is fixed by
    symmetric_project, and there are C(n+k-1, k) of them.
    """
    slots = (Slot(n, variance),) * k
    out = []
    for orbit in _orbits(slots, range(k)):
        entries = [Fraction(0)] * (n ** k)
        for pos in orbit:
            entries[pos] = Fraction(1, len(orbit))
        out.append(DenseTensor(slots, entries))
    return out
