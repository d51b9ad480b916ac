import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toda_bn import (
    DegeneratePointError,
    SingularMatrixError,
    SquareMatrix,
    build_factors,
    build_lax,
    factor_minus_plus,
    factor_plus_minus,
    kr_factors,
    membership,
    pattern_dimension,
    project,
)
from toda_bn.splitting import _close, _lower_unitupper, _unitupper_lower
from toda_bn.verify import (
    random_alg_minus,
    random_alg_plus,
    random_g_minus,
    random_matrix,
    random_point,
    random_rational,
)


def test_project_fixes_plus_elements(rng):
    x = random_alg_plus(2, rng)
    pair = project(x)
    assert pair.plus == x
    assert pair.minus == SquareMatrix.zero(4)


def test_project_worked_point_diagonal(worked_point):
    # (1-Q_1) z_1 - 1/z_1 = 1 - 1/2
    pair = project(build_lax(worked_point))
    assert pair.plus[0, 0] == Fraction(1, 2)


def test_project_splits_and_is_idempotent(rng):
    for n in (1, 2, 3):
        x = random_matrix(2 * n, rng)
        pair = project(x)
        assert pair.plus + pair.minus == x
        assert membership(pair.plus, "g_plus")
        assert membership(pair.minus, "g_minus")
        again = project(pair.plus)
        assert again.plus == pair.plus and again.minus == SquareMatrix.zero(2 * n)
        again = project(pair.minus)
        assert again.minus == pair.minus and again.plus == SquareMatrix.zero(2 * n)


def test_identity_memberships():
    """The identity sits in both groups and in the minus algebra, but not in
    the plus algebra (whose lower-right block must have zero diagonal)."""
    I4 = SquareMatrix.identity(4)
    assert membership(I4, "G_plus")
    assert membership(I4, "G_minus")
    assert membership(I4, "g_minus")
    assert not membership(I4, "g_plus")


def test_lax_factor_memberships(worked_point):
    n, b, c = build_factors(worked_point)
    assert membership(b, "G_plus")
    assert membership(n, "G_plus")
    assert not membership(c, "G_minus")  # J N11 J != N22 in general
    assert membership(kr_factors(worked_point).K, "G_minus")
    assert membership(kr_factors(worked_point).R, "G_plus")


def test_group_membership_singular_input():
    z = SquareMatrix.zero(4)
    with pytest.raises(SingularMatrixError):
        membership(z, "G_plus")
    assert membership(z, "g_plus")  # algebra checks accept singular matrices


def test_commutator_closure(rng):
    for n in (1, 2, 3):
        a, b = random_alg_plus(n, rng), random_alg_plus(n, rng)
        assert membership(a.commutator(b), "g_plus")
        u, v = random_alg_minus(n, rng), random_alg_minus(n, rng)
        assert membership(u.commutator(v), "g_minus")


def test_pattern_dimension():
    for n in range(1, 5):
        for which in ("g_plus", "g_minus", "G_plus", "G_minus"):
            assert pattern_dimension(n, which) == 2 * n * n


def test_factor_identity():
    I4 = SquareMatrix.identity(4)
    assert factor_minus_plus(I4) == (I4, I4)
    assert factor_plus_minus(I4) == (I4, I4)


def test_factor_roundtrip_membership_uniqueness(rng):
    for n in (1, 2, 3, 4):
        done = 0
        while done < 5:
            x = random_matrix(2 * n, rng)
            try:
                k, r = factor_minus_plus(x)
            except DegeneratePointError:
                continue
            assert k @ r == x
            assert membership(k, "G_minus") and membership(r, "G_plus")
            assert factor_minus_plus(k @ r) == (k, r)
            done += 1


def test_factor_fixes_g_minus(rng):
    for n in (1, 2, 3):
        g = random_g_minus(n, rng)
        k, r = factor_minus_plus(g)
        assert k == g and r == SquareMatrix.identity(2 * n)


def test_factor_plus_minus_on_lax(rng):
    for n in (2, 3):
        x = random_point(n, rng)
        L = build_lax(x)
        mp, kinv = factor_plus_minus(L)
        assert mp @ kinv == L
        assert membership(mp, "G_plus") and membership(kinv, "G_minus")
        # the G_minus factor inverts to the closed-form K
        assert kinv.inverse() == kr_factors(x).K


# -- g_plus as a shape against the three loops it replaced ----------------------


def old_plus_membership(X, which):
    """The plus patterns as the lower-left block, then the strict lower
    triangles of the two diagonal blocks, then the diagonals."""
    n = X.dim // 2
    mode = X.mode
    scale = X.max_abs() if mode == "float" else 0.0
    if which == "G_plus" and X.det() == 0:
        raise SingularMatrixError("group membership needs a nonsingular matrix")

    def zero(v):
        return _close(v, 0, mode, scale)

    for i in range(n):
        for j in range(n):
            if not zero(X[n + i, j]):
                return False
    for i in range(n):
        for j in range(i):
            if not zero(X[i, j]) or not zero(X[n + i, n + j]):
                return False
    if which == "g_plus":
        return all(zero(X[n + i, n + i]) for i in range(n))
    return (all(not zero(X[i, i]) for i in range(n))
            and all(_close(X[n + i, n + i], 1, mode, scale) for i in range(n)))


def sparse_upper(n, rng):
    """A random exact 2n x 2n matrix, mostly zero below its diagonal; its
    lower right diagonal is mostly 0 or mostly 1."""
    lower_diagonal = rng.choice([Fraction(0), Fraction(1)])

    def entry(i, j):
        if j < i:
            return random_rational(rng) if rng.random() < 0.05 else Fraction(0)
        if j == i >= n:
            return lower_diagonal if rng.random() < 0.9 else random_rational(rng)
        if j == i:
            return random_rational(rng) if rng.random() < 0.9 else Fraction(0)
        return random_rational(rng) if rng.random() < 0.7 else Fraction(0)

    return SquareMatrix([[entry(i, j) for j in range(2 * n)] for i in range(2 * n)], "exact")


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_plus_shape_equals_the_three_loops(rng, n, mode):
    seen = set()
    for _ in range(300):
        X = sparse_upper(n, rng)
        if mode == "float":
            X = SquareMatrix([[float(v) for v in r] for r in X.rows], "float")
        for which in ("g_plus", "G_plus"):
            try:
                want = old_plus_membership(X, which)
            except SingularMatrixError:
                with pytest.raises(SingularMatrixError):
                    membership(X, which)
                continue
            assert membership(X, which) == want
            seen.add((which, want))
    assert len(seen) == 4  # both outcomes of both kinds occur


# -- the index flip against the product-based code it replaced ------------------


def old_unitupper_lower(X):
    S = SquareMatrix.reversal(X.dim, X.mode)
    lo, up = (S @ X @ S).lu_unit_lower()
    return S @ lo @ S, S @ up @ S


def old_factor_minus_plus(X):
    n = X.dim // 2
    mode = X.mode
    Lo, Ru = _lower_unitupper(X)
    A = Lo.block(0, 0, n)
    B = Lo.block(n, 0, n)
    C = Lo.block(n, n, n)
    J = SquareMatrix.reversal(n, mode)
    try:
        Cinv = C.inverse()
    except SingularMatrixError as e:
        raise DegeneratePointError(f"singular lower-right Gauss block: {e}") from e
    R2, U2 = old_unitupper_lower(Cinv @ J @ A @ J)
    JU2invJ = J @ U2.inverse() @ J
    Z0 = SquareMatrix.zero(n, mode)
    K = SquareMatrix.from_blocks([[A @ JU2invJ, Z0], [B @ JU2invJ, C @ R2]])
    G = SquareMatrix.from_blocks([[J @ U2 @ J, Z0], [Z0, R2.inverse()]])
    return K, G @ Ru


# Exact entries, and floats k/8 that keep the float eliminations away from
# underflow, so that the old code's products and the flip see equal bits.
SPLIT_ENTRIES = {
    "exact": st.one_of(st.just(Fraction(0)), st.fractions(-9, 9, max_denominator=6)),
    "float": st.integers(-72, 72).map(lambda k: k / 8),
}


@st.composite
def mode_matrices(draw, dims):
    mode = draw(st.sampled_from(["exact", "float"]))
    d = draw(dims)
    rows = draw(st.lists(st.lists(SPLIT_ENTRIES[mode], min_size=d, max_size=d),
                         min_size=d, max_size=d))
    return SquareMatrix(rows, mode)


def same_outcome(new, old, X):
    """new(X) and old(X) give equal factors, by repr in float mode, or raise
    the same error."""
    try:
        want = old(X)
    except (DegeneratePointError, SingularMatrixError) as e:
        with pytest.raises(type(e), match=f"^{re.escape(str(e))}$"):
            new(X)
        return
    got = new(X)
    if X.mode == "exact":
        assert got == want
    else:
        assert repr(got) == repr(want)


@settings(max_examples=60, deadline=None)
@given(mode_matrices(st.integers(1, 8)))
def test_unitupper_lower_matches_the_product_code(X):
    same_outcome(_unitupper_lower, old_unitupper_lower, X)


@settings(max_examples=60, deadline=None)
@given(mode_matrices(st.sampled_from([2, 4, 6, 8])))
def test_factor_minus_plus_matches_the_product_code(X):
    same_outcome(factor_minus_plus, old_factor_minus_plus, X)


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_factor_minus_plus_matches_the_product_code_on_lax(rng, mode):
    for n in (1, 2, 3, 4):
        x = random_point(n, rng)
        L = build_lax(x if mode == "exact" else x.to_float())
        same_outcome(factor_minus_plus, old_factor_minus_plus, L)
        same_outcome(factor_minus_plus, old_factor_minus_plus, L.inverse())
