import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
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
from toda_bn.linalg import close
from toda_bn.splitting import MEMBERSHIP_RTOL
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


@pytest.mark.parametrize("scale", [0.5, 2.0, 3.0])
def test_float_membership_at_its_tolerance(scale):
    # the entry t must be 0 in both patterns: within MEMBERSHIP_RTOL times
    # max(max|X|, 1), and max|X| = max(scale, 1) at these t
    edge = MEMBERSHIP_RTOL * max(scale, 1.0)
    for t, want in ((edge, True), (math.nextafter(edge, math.inf), False)):
        for s in (t, -t):
            assert membership(SquareMatrix([[scale, 1.0], [s, 0.0]], "float"), "g_plus") is want
            assert membership(SquareMatrix([[scale, s], [1.0, scale]], "float"), "G_minus") is want


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
        return close(v, 0, mode, MEMBERSHIP_RTOL, scale)

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
            and all(close(X[n + i, n + i], 1, mode, MEMBERSHIP_RTOL, scale) for i in range(n)))


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


# -- the Schur-complement route against the two Gauss steps it replaced --------


def old_unitupper_lower(X):
    S = SquareMatrix.reversal(X.dim, X.mode)
    lo, up = (S @ X @ S).lu_unit_lower()
    return S @ lo @ S, S @ up @ S


def old_factor_minus_plus(X):
    """Gauss X = Lo Ru of the whole matrix, then a second Gauss step on the
    blocks of Lo = [[A, 0], [B, C]]."""
    n = X.dim // 2
    mode = X.mode
    lu, uu = X.transpose().lu_unit_lower()
    Lo, Ru = uu.transpose(), lu.transpose()
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


# Exact entries, 0 about half the time, and floats k/8.
SPLIT_ENTRIES = {
    "exact": st.one_of(st.just(Fraction(0)), st.fractions(-9, 9, max_denominator=6)),
    "float": st.integers(-72, 72).map(lambda k: k / 8),
}

#: Float K R against X, entrywise, within it times max(max|K| max|R|, 1):
#: the backward error of an unpivoted LU scales with its factors, not with
#: X.  Worst measured 1.8e-14 over 12000 random k/8 matrices (d = 2..8, up
#: to 60% zeros) and 320 float Lax matrices and their inverses (n = 1..8).
FLOAT_FACTOR_RTOL = 1e-12


@st.composite
def mode_matrices(draw, dims):
    mode = draw(st.sampled_from(["exact", "float"]))
    d = draw(dims)
    rows = draw(st.lists(st.lists(SPLIT_ENTRIES[mode], min_size=d, max_size=d),
                         min_size=d, max_size=d))
    return SquareMatrix(rows, mode)


def assert_factors(X, K, R):
    """K R = X with K in G_minus and R in G_plus; exactly in exact mode."""
    assert membership(K, "G_minus") and membership(R, "G_plus")
    if X.mode == "exact":
        assert K @ R == X
        return
    gap = max(abs(a - b) for ra, rb in zip((K @ R).rows, X.rows) for a, b in zip(ra, rb))
    assert gap <= FLOAT_FACTOR_RTOL * max(K.max_abs() * R.max_abs(), 1.0)


def same_outcome(X):
    """In exact mode factor_minus_plus(X) equals the old route's factors
    wherever that succeeds; it returns valid factors or raises
    DegeneratePointError wherever that raises, and in float mode."""
    if X.mode == "exact":
        try:
            want = old_factor_minus_plus(X)
        except (DegeneratePointError, SingularMatrixError):
            pass
        else:
            assert factor_minus_plus(X) == want
            return
    try:
        K, R = factor_minus_plus(X)
    except DegeneratePointError:
        return
    assert_factors(X, K, R)


@settings(max_examples=60, deadline=None)
@given(mode_matrices(st.sampled_from([2, 4, 6, 8])))
def test_factor_minus_plus_matches_the_product_code(X):
    same_outcome(X)


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_factor_minus_plus_matches_the_product_code_on_lax(rng, mode):
    for n in (1, 2, 3, 4):
        x = random_point(n, rng)
        L = build_lax(x if mode == "exact" else x.to_float())
        same_outcome(L)
        same_outcome(L.inverse())


@st.composite
def g_minus_g_plus(draw):
    """Exact K in G_minus with any invertible U (its leading minors may
    vanish) and R in G_plus."""
    n = draw(st.integers(1, 4))
    entry = SPLIT_ENTRIES["exact"]
    nonzero = st.fractions(-9, 9, max_denominator=6).filter(bool)

    def block(draw_entry):
        return SquareMatrix([[draw_entry(i, j) for j in range(n)] for i in range(n)])

    U = block(lambda i, j: draw(entry))
    assume(U.det() != 0)
    V = block(lambda i, j: draw(entry))
    P = block(lambda i, j: draw(nonzero) if i == j else draw(entry) if i < j else 0)
    Y = block(lambda i, j: draw(entry))
    Z = block(lambda i, j: 1 if i == j else draw(entry) if i < j else 0)
    Z0 = SquareMatrix.zero(n)
    return (SquareMatrix.from_blocks([[U, Z0], [V, U.flip()]]),
            SquareMatrix.from_blocks([[P, Y], [Z0, Z]]))


@settings(max_examples=80, deadline=None)
@given(g_minus_g_plus())
def test_factor_minus_plus_recovers_any_factors(KR):
    K, R = KR
    assert factor_minus_plus(K @ R) == (K, R)


def test_factor_minus_plus_swap_block():
    """U = [[0, 1], [1, 0]] has a vanishing leading minor, which the whole
    matrix's Gauss step tripped on; K is still its own factorization."""
    U = SquareMatrix([[0, 1], [1, 0]])
    V = SquareMatrix([[2, Fraction(-1, 3)], [5, 7]])
    K = SquareMatrix.from_blocks([[U, SquareMatrix.zero(2)], [V, U.flip()]])
    assert factor_minus_plus(K) == (K, SquareMatrix.identity(4))


def test_factor_minus_plus_singular_upper_left_block():
    X = SquareMatrix([[1, 2, 3, 4], [2, 4, 5, 6], [7, 8, 9, 1], [2, 3, 5, 7]])
    with pytest.raises(DegeneratePointError,
                       match="^singular upper-left block: singular at column 1$"):
        factor_minus_plus(X)


def test_factor_minus_plus_float_upper_left_pivot_below_the_threshold():
    # X11's second pivot 2^-44 is nonzero, so a float solve would take it,
    # but it is below SINGULARITY_RTOL; det(X) passes the same rule
    rows = [[1.0, 1.0, 2.0, 0.0], [1.0, 1.0 + 2.0 ** -44, 0.0, 3.0],
            [0.0, 1.0, 1.0, 0.0], [1.0, 0.0, 0.0, 1.0]]
    X = SquareMatrix(rows, "float")
    assert X.det() != 0 and X.block(0, 0, 2).det() == 0
    with pytest.raises(DegeneratePointError, match="^singular upper-left block: "):
        factor_minus_plus(X)
    # the same matrix as rationals factors
    exact = SquareMatrix([[Fraction(v) for v in r] for r in rows])
    K, R = factor_minus_plus(exact)
    assert K @ R == exact


def test_factor_minus_plus_float_singular_matrix():
    # X11 = 0.375 is fine, but the Schur complement is rounding noise
    X = SquareMatrix([[0.375, 0.875], [0.375, 0.875]], "float")
    with pytest.raises(DegeneratePointError, match="^singular matrix$"):
        factor_minus_plus(X)
