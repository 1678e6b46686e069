"""Exact operator checks over Q(sqrt2): the X family, partial transposes,
reductions, and the four verified claims of the demo report."""

import hashlib
import random
from fractions import Fraction

import numpy as np
import pytest

from coneext import quantum
from coneext.quantum import (ETA, ONE, ZERO, AppendixError, build_X,
                             identity_operator, kron_operator,
                             operator, partial_transpose, psd_check_exact,
                             reduce_b_factors, sym_identity_extension,
                             trace_product, verify_appendix)
from coneext.scalars import QuadScalar, SQRT2


def _random_symmetric(rng, n, span=3):
    rows = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = QuadScalar(Fraction(rng.randint(-span, span), rng.randint(1, 2)),
                           Fraction(rng.randint(-span, span), rng.randint(1, 2)))
            rows[i][j] = v
            rows[j][i] = v
    return operator(rows)


def _random_operator(rng, n, span=3):
    return operator([[QuadScalar(Fraction(rng.randint(-span, span), rng.randint(1, 2)),
                                 Fraction(rng.randint(-span, span), rng.randint(1, 2)))
                      for _ in range(n)] for _ in range(n)])


def _mat_mul(x, y):
    n = x.slots[0].dim
    return operator([[sum((x[(i, l)] * y[(l, j)] for l in range(n)), ZERO)
                      for j in range(n)] for i in range(n)])


def _gram(m):
    n = m.slots[0].dim
    return operator([[sum((m[(l, i)] * m[(l, j)] for l in range(n)), ZERO)
                      for j in range(n)] for i in range(n)])


def test_eta_value():
    assert ETA == QuadScalar(1, Fraction(-1, 2))
    assert ETA.sign() == 1
    assert (ETA * ETA) == QuadScalar(Fraction(3, 2), -1)


def test_build_x_explicit_matrix():
    gamma = QuadScalar(1, 2)  # 1 + 2 sqrt2
    x = build_X(QuadScalar(4), ONE, gamma)
    assert x.slots[0].dim == 9
    corners = {0, 4, 8}  # the |ii> slots
    for i in range(9):
        for j in range(9):
            if i == j:
                want = QuadScalar(4) if i in corners else ONE
            elif i in corners and j in corners:
                want = gamma
            else:
                want = ZERO
            assert x[(i, j)] == want


def test_x_100_is_a_projector():
    p = build_X(ONE, ZERO, ZERO)
    assert _mat_mul(p, p) == p
    tr = sum((p[(i, i)] for i in range(9)), ZERO)
    assert tr == QuadScalar(3)


def test_psd_on_small_closed_forms():
    assert psd_check_exact(identity_operator(4), strict=True)
    assert psd_check_exact(operator([[ZERO, ZERO], [ZERO, ZERO]]))
    assert not psd_check_exact(operator([[ZERO, ONE], [ONE, ZERO]]))
    # X_{a,b,g} on the corner block: eigenvalues a - g and a + 2g
    assert psd_check_exact(build_X(ONE, ONE, ONE))
    assert not psd_check_exact(build_X(ONE, ONE, QuadScalar(-2)))
    assert not psd_check_exact(build_X(ONE, QuadScalar(-1, Fraction(1, 2)), ZERO))


def test_psd_matches_eigenvalue_oracle():
    """Exact pivots against a floating eigensolver on 100 random symmetric
    matrices, counting only eigenvalues bounded away from zero."""
    rng = random.Random(2026)
    compared = 0
    for trial in range(100):
        n = rng.randint(1, 12)
        m = _random_symmetric(rng, n)
        if trial % 3 == 0:
            m = _gram(m)  # guaranteed PSD
        arr = np.array([[m[(i, j)].a + m[(i, j)].b * np.sqrt(2) for j in range(n)]
                        for i in range(n)])
        eigs = np.linalg.eigvalsh(arr)
        if min(abs(e) for e in eigs) < 1e-9:
            continue
        compared += 1
        assert psd_check_exact(m) == bool(eigs.min() > 0), (trial, n)
    assert compared >= 80


def test_psd_strict_vs_semidefinite():
    rng = random.Random(5)
    m = _random_symmetric(rng, 5)
    g = _gram(m)
    assert psd_check_exact(g)
    padded = operator([[g[(i, j)] if i < 5 and j < 5 else ZERO
                        for j in range(6)] for i in range(6)])
    assert psd_check_exact(padded)
    assert not psd_check_exact(padded, strict=True)


def test_partial_transpose_example():
    x = build_X(ZERO, ONE, ONE)
    pt = partial_transpose(x, (3, 3), 1)
    expected = [[ZERO] * 9 for _ in range(9)]
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            ij = 3 * i + j
            ji = 3 * j + i
            expected[ij][ij] = ONE   # |ij><ij|
            expected[ij][ji] = ONE   # |ij><ji|
    assert pt == operator(expected)


def test_partial_transpose_involution_and_trace():
    rng = random.Random(7)
    for dims in ((3, 3), (2, 2), (2, 3)):
        n = dims[0] * dims[1]
        for which in (0, 1):
            m = _random_symmetric(rng, n)
            pt = partial_transpose(m, dims, which)
            assert partial_transpose(pt, dims, which) == m
            tr = sum((m[(i, i)] for i in range(n)), ZERO)
            tr_pt = sum((pt[(i, i)] for i in range(n)), ZERO)
            assert tr == tr_pt


def test_partial_transpose_full_is_transpose():
    rng = random.Random(11)
    m = _random_symmetric(rng, 4)
    both = partial_transpose(partial_transpose(m, (2, 2), 0), (2, 2), 1)
    assert both == m  # symmetric input, so the full transpose fixes it


def test_reduce_is_linear():
    rng = random.Random(13)
    a = _random_symmetric(rng, 27)
    b = _random_symmetric(rng, 27)
    c = QuadScalar(Fraction(2, 3), 1)
    lhs = reduce_b_factors(a.scale(c) + b)
    rhs = reduce_b_factors(a).scale(c) + reduce_b_factors(b)
    assert lhs == rhs


def _b_marginal(rho):
    rows = [[ZERO] * 3 for _ in range(3)]
    for a in range(3):
        for ap in range(3):
            rows[a][ap] = sum((rho[(3 * a + b, 3 * ap + b)] for b in range(3)), ZERO)
    return operator(rows)


def test_reduce_of_padded_product():
    """Symmetrically padding with the maximally mixed state and reducing
    averages the state with its A-marginal padding; the two agree exactly
    when the B-marginal is already maximally mixed."""
    rng = random.Random(17)
    third = QuadScalar(Fraction(1, 3))
    rho = _random_symmetric(rng, 9)
    sigma = sym_identity_extension(rho).scale(third)
    red = reduce_b_factors(sigma)
    pad = kron_operator(_b_marginal(rho), identity_operator(3)).scale(third)
    half = QuadScalar(Fraction(1, 2))
    assert red == (rho + pad).scale(half)

    rho_a = _random_symmetric(rng, 3)
    product = kron_operator(rho_a, identity_operator(3)).scale(third)
    sigma = sym_identity_extension(product).scale(third)
    assert reduce_b_factors(sigma) == product


def test_sym_extension_is_swap_symmetric():
    rng = random.Random(19)
    w = _random_symmetric(rng, 9)
    ext = sym_identity_extension(w)

    def swap(i):
        a, r = divmod(i, 9)
        b, c = divmod(r, 3)
        return 9 * a + 3 * c + b

    for i in range(27):
        for j in range(27):
            assert ext[(i, j)] == ext[(swap(i), swap(j))]


# sha256 of the str of every entry (row-major, one per line), captured from
# the hand-indexed maps that preceded the tensor-slot versions.
MAP_PINS = {
    "reduce_b_factors": "c8884dfa8d377ad32769de0757ecbb908bcb28c3f489cb85720caf3dd7dfce40",
    "sym_identity_extension": "dbfb5df22b41d539bfd63e5b9e5e007f24b48fc47de1d49d6005521ca1ddd92a",
    "partial_transpose 3x3 0": "e24e83fb9b9c929fb25b55a0edf5f2472c87bc891a7ddc8ca85a69f36595e82b",
    "partial_transpose 3x3 1": "4863547264d2c09e142bae186c5cea744da03f6410d90be6ebba570dfa824037",
    "partial_transpose 2x3 0": "d076cb8cd74a398db83448990d7b64b6b34ad6be8c1c5bd43581d35c4f79823d",
    "partial_transpose 2x3 1": "e3916c5eb002bed867698f3a0551a9ed6863b6f9eefbc0b5b958a2e22b0647a9",
    "kron_operator": "ad15371538cd54c203f59ea3364a7f0f6661c988000c9fd3cbe0709de47a55e9",
}


def test_operator_maps_are_pinned():
    """The partial transposes and kron run on non-symmetric inputs: on a
    symmetric one the two factors' partial transposes coincide."""
    rng = random.Random(29)
    out = {
        "reduce_b_factors": reduce_b_factors(_random_symmetric(rng, 27)),
        "sym_identity_extension": sym_identity_extension(_random_symmetric(rng, 9)),
    }
    for dims in ((3, 3), (2, 3)):
        m = _random_operator(rng, dims[0] * dims[1])
        for which in (0, 1):
            out[f"partial_transpose {dims[0]}x{dims[1]} {which}"] = \
                partial_transpose(m, dims, which)
    out["kron_operator"] = kron_operator(_random_operator(rng, 2), _random_operator(rng, 3))
    digests = {label: hashlib.sha256("\n".join(str(e) for e in m.entries).encode()).hexdigest()
               for label, m in out.items()}
    assert digests == MAP_PINS


def test_operator_map_shape_checks():
    with pytest.raises(ValueError, match="expected a 27x27 operator"):
        reduce_b_factors(identity_operator(9))
    with pytest.raises(ValueError, match="expected a 9x9 operator"):
        sym_identity_extension(identity_operator(27))
    with pytest.raises(ValueError, match="factor dimensions do not multiply"):
        partial_transpose(identity_operator(6), (3, 3), 0)
    with pytest.raises(ValueError, match="factor index out of range"):
        partial_transpose(identity_operator(9), (3, 3), 2)
    with pytest.raises(ValueError, match="dimension mismatch"):
        trace_product(identity_operator(3), identity_operator(4))
    with pytest.raises(ValueError, match="^matrix is not square$"):
        operator([[1, 0], [0]])


def test_report_passes_all_claims():
    claims = verify_appendix()
    assert [c.label for c in claims] == [
        "decomposition", "gram-extension", "transpose-extension", "obstruction"]
    values = {c.label: dict(c.values) for c in claims}
    assert values["decomposition"]["weight_corner"] == "1/4 + 0 r2"
    assert values["decomposition"]["weight_flip"] == "3/4 + -1/2 r2"
    assert values["transpose-extension"]["scale"] == "1 + 0 r2"
    assert values["obstruction"]["trace_y_w"] == "0 + 0 r2"
    assert values["obstruction"]["w_psd"] == "False"
    assert values["obstruction"]["pad_strictly_pd"] == "True"


@pytest.mark.parametrize("name,fake,message", [
    ("psd_check_exact", lambda m, strict=False: False, "decomposition of Y failed"),
    ("_gram_vectors", lambda real=quantum._gram_vectors: real()[:2],
     "Gram extension of the corner operator failed"),
    ("partial_transpose", lambda m, dims, which: m, "partial-transpose extension failed"),
    ("trace_product", lambda x, y: QuadScalar(1, 0), "obstruction verification failed"),
])
def test_each_claim_refuses_a_broken_ingredient(monkeypatch, name, fake, message):
    """With one ingredient of a claim broken, verify_appendix raises that
    claim's message: the claims before it still pass."""
    monkeypatch.setattr(quantum, name, fake)
    with pytest.raises(AppendixError, match=f"^{message}$"):
        verify_appendix()


def test_y_decomposition_identity():
    y = build_X(ONE, ETA, ONE)
    corner = build_X(QuadScalar(4), ONE, QuadScalar(1, 2))
    flip = build_X(ZERO, ONE, ONE)
    w1 = QuadScalar(Fraction(1, 4))
    w2 = QuadScalar(Fraction(3, 4), Fraction(-1, 2))
    assert corner.scale(w1) + flip.scale(w2) == y
    assert psd_check_exact(y)
    assert not psd_check_exact(y, strict=True)


def test_y_kernel_dimension_two():
    y = build_X(ONE, ETA, ONE)
    rows = [[y[(i, j)] for j in range(9)] for i in range(9)]
    r = 0
    for c in range(9):
        pr = next((i for i in range(r, 9) if not rows[i][c].is_zero()), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(9):
            if i != r and not rows[i][c].is_zero():
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    assert r == 7


def test_obstruction_pieces():
    w = build_X(ONE, ETA, QuadScalar(-2, 1))
    assert not psd_check_exact(w)
    y = build_X(ONE, ETA, ONE)
    assert trace_product(y, w) == ZERO
    w2 = sym_identity_extension(w)
    assert psd_check_exact(w2, strict=True)


def test_trace_product_symmetry():
    rng = random.Random(23)
    a = _random_symmetric(rng, 6)
    b = _random_symmetric(rng, 6)
    assert trace_product(a, b) == trace_product(b, a)


def test_operator_rejects_asymmetric_psd_input():
    m = operator([[ONE, ONE], [ZERO, ONE]])
    with pytest.raises(ValueError):
        psd_check_exact(m)
