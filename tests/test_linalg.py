import hashlib
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toda_bn import (
    DegeneratePointError,
    ModeError,
    PhasePoint,
    SingularMatrixError,
    SquareMatrix,
    build_factors,
    build_lax,
    mat_exp,
    to_phase,
)
from toda_bn.conserved import conserved_values
from toda_bn.linalg import SINGULARITY_RTOL, _addmul, _div, close, conjugate, solve
from toda_bn.verify import random_canonical, random_matrix


@pytest.mark.parametrize("rtol,scale,base", [
    (2.0 ** -20, 8.0, 1.0), (2.0 ** -20, 0.25, -3.0), (1e-9, 3.0, 0.0), (1e-8, 1e6, 0.0),
])
def test_close_at_its_float_boundary(rtol, scale, base):
    # base + tol is exact at these values, so edge and base are exactly
    # rtol * max(scale, 1) apart, and the next float beyond is not close
    tol = rtol * max(scale, 1.0)
    edge = base + tol
    assert edge - base == tol
    beyond = math.nextafter(edge, math.inf)
    for a, b, want in ((edge, base, True), (beyond, base, False)):
        assert close(a, b, "float", rtol, scale) is want
        assert close(b, a, "float", rtol, scale) is want
        assert close(-a, -b, "float", rtol, scale) is want


def test_close_nan_signed_zeros_and_exact_mode():
    for a, b in ((math.nan, math.nan), (math.nan, 0.0), (0.0, math.nan), (math.inf, math.inf)):
        assert not close(a, b, "float", 1.0, 1e300)
    assert close(-0.0, 0.0, "float", 0.0) and close(0.0, -0.0, "float", 0.0)
    # exact mode is equality, whatever the tolerance and scale
    tiny = Fraction(1, 10 ** 30)
    assert not close(Fraction(1), 1 + tiny, "exact", 1.0, 1e300)
    assert not close(tiny, 0, "exact", 1.0, 1e300)
    assert close(Fraction(2, 6), Fraction(1, 3), "exact", 0.0)


def test_identity_inverse():
    I4 = SquareMatrix.identity(4)
    assert I4.inverse() == I4


def test_commutator_with_self_vanishes(rng):
    for _ in range(5):
        x = random_matrix(4, rng)
        assert x.commutator(x) == SquareMatrix.zero(4)


def test_inverse_of_lax_factor_c(worked_point):
    _, _, c = build_factors(worked_point)
    assert c @ c.inverse() == SquareMatrix.identity(4)


def test_char_poly_diagonal():
    m = SquareMatrix([[2, 0], [0, 3]])
    assert m.char_poly() == (1, -5, 6)


def test_char_poly_lax_n1():
    # L = [[(1-Q1)z1, 1], [-Q1, 1/z1]] at z = 2, Q = 1/3
    L = SquareMatrix([[Fraction(4, 3), 1], [Fraction(-1, 3), Fraction(1, 2)]])
    assert L.char_poly() == (1, -(Fraction(4, 3) + Fraction(1, 2)), 1)


def test_lax_determinant_is_one(rng):
    from toda_bn import build_lax
    from toda_bn.verify import random_point

    for n in range(1, 5):
        for _ in range(12):
            x = random_point(n, rng)
            coeffs = build_lax(x).char_poly()
            assert coeffs[2 * n] == 1


def test_char_poly_similarity_invariant(rng):
    m = random_matrix(4, rng)
    while True:
        p = random_matrix(4, rng)
        if p.det() != 0:
            break
    assert (p @ m @ p.inverse()).char_poly() == m.char_poly()


def horner(p, lam):
    """The characteristic polynomial p, highest coefficient first, at lam."""
    acc = 0
    for c in p:
        acc = acc * lam + c
    return acc


def test_char_poly_root_at_triangular_eigenvalue(rng):
    rows = [[random_matrix(1, rng)[0, 0] if j >= i else Fraction(0) for j in range(4)]
            for i in range(4)]
    m = SquareMatrix(rows)
    p = m.char_poly()
    for i in range(4):
        assert horner(p, m[i, i]) == 0


def test_lu_hand_example():
    m = SquareMatrix([[2, 1], [4, 3]])
    lower, upper = m.lu_unit_lower()
    assert lower == SquareMatrix([[1, 0], [2, 1]])
    assert upper == SquareMatrix([[2, 1], [0, 1]])


def test_lu_identity():
    I3 = SquareMatrix.identity(3)
    assert I3.lu_unit_lower() == (I3, I3)


def test_lu_roundtrip_and_uniqueness(rng):
    while True:
        try:
            m = random_matrix(6, rng)
            lower, upper = m.lu_unit_lower()
            break
        except DegeneratePointError:
            continue
    assert lower @ upper == m
    assert (lower @ upper).lu_unit_lower() == (lower, upper)


def test_lu_degenerate():
    with pytest.raises(DegeneratePointError):
        SquareMatrix([[0, 1], [1, 0]]).lu_unit_lower()


def test_singular_inverse_raises():
    with pytest.raises(SingularMatrixError):
        SquareMatrix([[1, 2], [2, 4]]).inverse()
    with pytest.raises(SingularMatrixError):
        SquareMatrix([[1.0, 2.0], [2.0, 4.0]]).inverse()


def test_mode_mixing_rejected():
    with pytest.raises(ModeError):
        SquareMatrix([[Fraction(1), 0.5], [0, 1]])
    with pytest.raises(ModeError):
        SquareMatrix([[0.5, Fraction(1)], [0, 1]])  # order must not matter
    with pytest.raises(ModeError):
        SquareMatrix.identity(2) @ SquareMatrix.identity(2, "float")
    with pytest.raises(ModeError):
        SquareMatrix.identity(2) * 0.5  # the scalar multiple keeps the mode
    with pytest.raises(ModeError):
        True * SquareMatrix.identity(2, "float")
    assert SquareMatrix([[0.5, 1], [0, 1]]).mode == "float"  # ints absorb


def test_float_trace_adds_in_order():
    # sum() would compensate from Python 3.12 on and read 1.0
    m = SquareMatrix([[1e16, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, -1e16]])
    assert m.trace() == 0.0


def test_mat_exp_zero():
    m = SquareMatrix([[1.0, 2.0], [3.0, 4.0]])
    assert mat_exp(m, 0.0) == SquareMatrix.identity(2, "float")


def test_mat_exp_diagonal():
    m = SquareMatrix([[1.0, 0.0], [0.0, 2.0]])
    e = mat_exp(m, 1.0)
    assert abs(e[0, 0] - math.e) < 1e-12 * math.e
    assert abs(e[1, 1] - math.e ** 2) < 1e-12 * math.e ** 2
    assert abs(e[0, 1]) < 1e-14 and abs(e[1, 0]) < 1e-14


def test_mat_exp_inverse_property(rng):
    rows = [[rng.uniform(-0.5, 0.5) for _ in range(4)] for _ in range(4)]
    m = SquareMatrix(rows)
    prod = mat_exp(m) @ mat_exp(-1 * m)
    eye = SquareMatrix.identity(4, "float")
    assert max(abs(prod[i, j] - eye[i, j]) for i in range(4) for j in range(4)) < 1e-10


def test_mat_exp_mode_error():
    with pytest.raises(ModeError):
        mat_exp(SquareMatrix.identity(2))


@pytest.mark.parametrize("n", range(1, 9))
def test_mat_exp_matches_scipy_on_lax(rng, n):
    np = pytest.importorskip("numpy")
    expm = pytest.importorskip("scipy.linalg").expm
    lax = build_lax(to_phase(random_canonical(n, rng)))
    for t in (0.5, -0.5, 2.0):
        got = mat_exp(lax, t)
        ref = expm(t * np.array(lax.rows))
        scale = float(abs(ref).max())
        assert max(abs(got[i, j] - ref[i, j]) for i in range(2 * n) for j in range(2 * n)) \
            <= 1e-10 * scale


def test_mat_exp_nilpotent_against_exact_series(rng):
    # strictly upper triangular, so exp(t A) = sum_{k < d} (t A)^k / k! is finite
    d = 6
    a = SquareMatrix([[Fraction(rng.randint(-16, 16), 8) if j > i else 0 for j in range(d)]
                      for i in range(d)])
    for t in (1, -3):
        term = total = SquareMatrix.identity(d)
        for k in range(1, d):
            term = term @ a * Fraction(t, k)
            total = total + term
        got = mat_exp(SquareMatrix(a.rows, "float"), float(t))
        scale = float(total.max_abs())
        assert max(abs(got[i, j] - total[i, j]) for i in range(d) for j in range(d)) \
            <= 1e-14 * scale


def test_mat_exp_rotation_generator():
    g = SquareMatrix([[0.0, -1.0], [1.0, 0.0]])
    for t in (0.25, 1.0, -2.5, 10.0, 100.0):
        got = mat_exp(g, t)
        c, s = math.cos(t), math.sin(t)
        ref = ((c, -s), (s, c))
        assert max(abs(got[i, j] - ref[i][j]) for i in range(2) for j in range(2)) < 1e-13


@pytest.mark.parametrize("rows, t, message", [
    ([[0.0, math.inf], [0.0, 1.0]], 1.0, "non-finite entry inf at row 0, column 1"),
    ([[1.0, 0.0], [math.nan, 1.0]], 0.5, "non-finite entry nan at row 1, column 0"),
    ([[1.0, 0.0], [0.0, 1e300]], 1e10, "non-finite entry inf at row 1, column 1"),
])
def test_mat_exp_rejects_non_finite(rows, t, message):
    with pytest.raises(ValueError, match=message):
        mat_exp(SquareMatrix(rows, "float"), t)


def test_json_roundtrip(rng):
    m = random_matrix(3, rng)
    obj = m.to_json_obj()
    assert isinstance(obj[0][0], str) and "/" in str(obj[0][0]) or obj[0][0].lstrip("-").isdigit()


def test_phase_point_mode_and_validation():
    with pytest.raises(Exception):
        PhasePoint(2, (Fraction(0), Fraction(1)), (Fraction(1), Fraction(1)))
    x = PhasePoint(1, (0.5,), (0.25,))
    assert x.mode == "float"
    y = PhasePoint(1, (Fraction(1, 2),), (Fraction(1, 4),))
    assert y.mode == "exact"
    with pytest.raises(ModeError):
        PhasePoint(2, (Fraction(1, 2), 0.5), (Fraction(1), Fraction(1)))


# -- exact kernel: the Hessenberg char_poly and the zero-skipping loops ---------

ENTRIES = st.one_of(st.just(Fraction(0)), st.fractions(-9, 9, max_denominator=6))


@st.composite
def sparse_matrices(draw, max_dim=8):
    d = draw(st.integers(1, max_dim))
    return SquareMatrix(draw(st.lists(st.lists(ENTRIES, min_size=d, max_size=d),
                                      min_size=d, max_size=d)))


def char_poly_by_interpolation(m):
    """Coefficients of det(lambda*E - m), highest degree first, by Lagrange
    interpolation of its values at lambda = 0..d."""
    d = m.dim
    ident = SquareMatrix.identity(d)
    coeffs = [Fraction(0)] * (d + 1)  # lowest degree first
    for k in range(d + 1):
        basis = [(ident * k - m).det()]  # value * prod_{j != k} (lambda - j) / (k - j)
        for j in range(d + 1):
            if j != k:
                basis = [(up - j * b) / (k - j) for up, b in zip([0] + basis, basis + [0])]
        coeffs = [c + b for c, b in zip(coeffs, basis)]
    return tuple(reversed(coeffs))


def jordan_block(d):
    """The nilpotent Jordan block: ones on the superdiagonal."""
    return SquareMatrix([[int(j == i + 1) for j in range(d)] for i in range(d)])


def permutation(images):
    return SquareMatrix([[int(images[j] == i) for j in range(len(images))]
                         for i in range(len(images))])


def block_upper(a, b, c):
    """[[a, b], [0, c]] for square a, c and a len(a) x len(c) list b."""
    ka, kc = a.dim, c.dim
    return SquareMatrix([list(a.rows[i]) + list(b[i]) for i in range(ka)]
                        + [[0] * ka + list(c.rows[i]) for i in range(kc)])


# (matrix, its characteristic polynomial or None); each reaches the branches
# for a column without a pivot, a row swap, or a zero subdiagonal entry
STRUCTURED = {
    "upper-triangular": (SquareMatrix(
        [[2, 1, 0, 3], [0, -1, 4, 0], [0, 0, Fraction(1, 2), 5], [0, 0, 0, 3]]),
        (1, Fraction(-9, 2), 3, Fraction(11, 2), -3)),
    "zero": (SquareMatrix.zero(5), (1, 0, 0, 0, 0, 0)),
    "nilpotent-jordan": (jordan_block(6), (1, 0, 0, 0, 0, 0, 0)),
    "nilpotent-jordan-lower": (jordan_block(6).transpose(), (1, 0, 0, 0, 0, 0, 0)),
    "permutation-cycle": (permutation([2, 0, 3, 4, 1]), (1, 0, 0, 0, 0, -1)),
    # cycles of length 2, 4, 1: (lambda^2 - 1)(lambda^4 - 1)(lambda - 1)
    "permutation-cycles": (permutation([1, 0, 3, 4, 5, 2, 6]),
                           (1, -1, -1, 1, -1, 1, 1, -1)),
    "block-triangular": (block_upper(
        SquareMatrix([[2, Fraction(1, 3)], [-1, 0]]), [[5, 0, 1], [0, Fraction(-2, 7), 0]],
        SquareMatrix([[0, 0, 1], [1, 0, 0], [0, Fraction(3, 2), 4]])), None),
    # columns 0 and 1 are zero below the subdiagonal, column 2 from it down
    "column-zero-below-subdiagonal": (SquareMatrix(
        [[1, 2, 3, 4, 5], [6, 7, 8, 9, 1], [0, 2, 3, 4, 5], [0, 0, 0, 1, 2], [0, 0, 0, 3, 4]]),
        None),
    # the largest |.| below the diagonal of column 0 is in row 2, not row 1
    "largest-pivot-below-subdiagonal": (SquareMatrix(
        [[1, 2, 3, 4], [1, 0, 2, 1], [7, 1, 0, 3], [2, 5, 1, 1]]), None),
}


@pytest.mark.parametrize("name", sorted(STRUCTURED))
def test_char_poly_structured_cases(name):
    m, expected = STRUCTURED[name]
    p = m.char_poly()
    assert p == char_poly_by_interpolation(m)
    assert all(type(c) is Fraction for c in p)
    if expected is not None:
        assert p == expected


def test_char_poly_block_triangular_factors():
    m = STRUCTURED["block-triangular"][0]
    p, a, c = m.char_poly(), m.block(0, 0, 2).char_poly(), m.block(2, 2, 3).char_poly()
    assert all(horner(p, lam) == horner(a, lam) * horner(c, lam) for lam in range(6))


@settings(max_examples=30, deadline=None)
@given(sparse_matrices())
def test_char_poly_matches_interpolated_determinant(m):
    p = m.char_poly()
    assert p == char_poly_by_interpolation(m)
    assert all(type(c) is Fraction for c in p)


@settings(max_examples=30, deadline=None)
@given(sparse_matrices(), sparse_matrices())
def test_sparse_products_inverse_det_lu(a, b):
    if a.dim == b.dim:
        dense = [[sum(a[i, k] * b[k, j] for k in range(a.dim)) for j in range(a.dim)]
                 for i in range(a.dim)]
        assert a @ b == SquareMatrix(dense)
    det = a.det()
    if det == 0:
        with pytest.raises(SingularMatrixError):
            a.inverse()
    else:
        assert a @ a.inverse() == SquareMatrix.identity(a.dim)
    try:
        lower, upper = a.lu_unit_lower()
    except DegeneratePointError:
        assert any(a.block(0, 0, k).det() == 0 for k in range(1, a.dim + 1))
    else:
        assert lower @ upper == a
        assert det == math.prod(upper[i, i] for i in range(a.dim))


# Float points whose conserved values (the float Hessenberg char_poly) and
# Lax inverse are pinned byte for byte: both use only + - * /, so the
# digests do not depend on the platform's libm.
FLOAT_GOLDEN = [
    (PhasePoint(3, (1.3, -0.7, 2.1), (0.4, -0.25, 0.15)),
     "22ca8a127fbc350b2603321b98d7135e52bb809bd0adc7eaedd8e4cb6ebaa310"),
    (PhasePoint(8, (1.1, -0.9, 1.7, 0.6, -1.3, 2.2, 0.8, -1.5),
                (0.3, -0.2, 0.45, 0.1, -0.35, 0.25, 0.05, -0.15)),
     "8c4a160cce091573b02745ee6dbb75627c4e9af87a7be6fc2eccbe3a83cdc2d5"),
]


@pytest.mark.parametrize("x,digest", FLOAT_GOLDEN, ids=["n3", "n8"])
def test_float_path_bytes_pinned(x, digest):
    blob = repr((conserved_values(x), build_lax(x).inverse().rows)).encode()
    assert hashlib.sha256(blob).hexdigest() == digest


# -- float kernel: the Hessenberg char_poly against exact, and @ ----------------

#: Relative bound, against max(1, |exact|), of float char_poly coefficients on
#: Lax matrices at chart points and on the structured matrices above.
FLOAT_CHAR_POLY_RTOL = 1e-12


def assert_near_exact(got, exact):
    assert len(got) == len(exact) and all(type(v) is float for v in got)
    for g, e in zip(got, exact):
        assert abs(Fraction(g) - e) <= FLOAT_CHAR_POLY_RTOL * max(1, abs(e)), (g, e)


def dyadic_chart_point(n, ks, js):
    """The exact point z_i = k_i / 8 > 0, Q_i = -j_i / 16 < 0 of the canonical
    chart; its float copy is the same point, so only the kernel rounds."""
    return PhasePoint(n, tuple(Fraction(k, 8) for k in ks), tuple(Fraction(-j, 16) for j in js))


def assert_float_conserved_near_exact(x):
    assert_near_exact(conserved_values(x.to_float()), conserved_values(x))


@pytest.mark.parametrize("n", range(1, 13))
def test_float_char_poly_on_lax_matrices(rng, n):
    for _ in range(3):
        ks, js = ([rng.randint(1, 16) for _ in range(n)] for _ in range(2))
        assert_float_conserved_near_exact(dyadic_chart_point(n, ks, js))


DYADIC_CHART_POINTS = st.integers(1, 8).flatmap(lambda n: st.builds(
    dyadic_chart_point, st.just(n),
    *(st.lists(st.integers(1, 16), min_size=n, max_size=n) for _ in range(2))))


@settings(max_examples=40, deadline=None)
@given(DYADIC_CHART_POINTS)
def test_float_conserved_values_near_exact_at_chart_points(x):
    assert_float_conserved_near_exact(x)


@pytest.mark.parametrize("name", sorted(STRUCTURED))
def test_float_char_poly_structured_cases(name):
    m = STRUCTURED[name][0]
    floats = SquareMatrix([[float(v) for v in r] for r in m.rows], "float")
    assert_near_exact(floats.char_poly(), m.char_poly())


def dense_product(a, b):
    """a @ b by the triple loop, each entry added in order from the int 0.

    Not sum(): it compensates float sums from Python 3.12 on, and the
    float product adds in order on every version.
    """
    d = a.dim
    out = [[0] * d for _ in range(d)]
    for i in range(d):
        for j in range(d):
            for k in range(d):
                out[i][j] = out[i][j] + a[i, k] * b[k, j]
    return out


FLOAT_ENTRIES = st.one_of(st.just(0.0), st.just(-0.0), st.floats(-10, 10),
                          st.floats(-1e200, 1e200))


@st.composite
def float_matrices(draw, dims=st.integers(1, 20)):
    d = draw(dims)
    return SquareMatrix(draw(st.lists(st.lists(FLOAT_ENTRIES, min_size=d, max_size=d),
                                      min_size=d, max_size=d)), "float")


@settings(max_examples=40, deadline=None)
@given(float_matrices(dims=st.integers(1, 12)), st.data())
def test_float_matmul_matches_dense_sum(a, data):
    b = data.draw(float_matrices(dims=st.just(a.dim)))
    assert repr((a @ b).rows) == repr(tuple(map(tuple, dense_product(a, b))))


# -- validation at the public constructor, trusted kernel outputs ---------------


@pytest.mark.parametrize("value", [True, False, "1/2", "nan", None, [1]],
                         ids=["true", "false", "str", "str-nan", "none", "list"])
@pytest.mark.parametrize("mode", [None, "exact", "float"])
def test_constructor_rejects_non_scalars_in_every_mode(value, mode):
    with pytest.raises(ModeError):
        SquareMatrix([[value]], mode)
    with pytest.raises(ModeError):
        SquareMatrix([[1, 0], [0, value]], mode)
    with pytest.raises(ModeError):
        SquareMatrix.identity(2, mode or "exact").with_entry(0, 1, value)


@pytest.mark.parametrize("build", [
    lambda: SquareMatrix([[1]], "bogus"),
    lambda: SquareMatrix.identity(2, "bogus"),
    lambda: SquareMatrix.zero(2, "bogus"),
    lambda: SquareMatrix.reversal(2, "bogus"),
], ids=["init", "identity", "zero", "reversal"])
def test_every_constructor_rejects_an_unknown_mode_alike(build):
    with pytest.raises(ValueError, match=r"^unknown mode 'bogus'$"):
        build()


def test_constructor_absorbs_ints_in_an_explicit_mode():
    assert SquareMatrix([[1, 2], [3, 4]], "float").rows == ((1.0, 2.0), (3.0, 4.0))
    exact = SquareMatrix([[1, Fraction(1, 2)], [0, 4]], "exact")
    assert all(type(v) is Fraction for r in exact.rows for v in r)
    assert type(SquareMatrix.identity(2, "float").with_entry(0, 1, 3)[0, 1]) is float
    assert type(SquareMatrix.identity(2).with_entry(0, 1, 3)[0, 1]) is Fraction
    with pytest.raises(ModeError):
        SquareMatrix([[0.5]], "exact")
    with pytest.raises(ModeError):
        SquareMatrix.identity(2).with_entry(0, 0, 0.5)


def test_block_rejects_a_window_outside_the_matrix():
    m = SquareMatrix.identity(3)
    for i0, j0, size in ((0, 0, 0), (2, 0, 2), (0, 2, 2), (0, 0, 4),
                         (-2, 0, 1), (0, -1, 1), (-1, -1, 2), (-3, -3, 3)):
        with pytest.raises(ValueError):
            m.block(i0, j0, size)


def assert_canonical(m):
    """m as the public constructor would build it from its own rows."""
    entry_type = Fraction if m.mode == "exact" else float
    assert type(m.rows) is tuple and len(m.rows) == m.dim
    assert all(type(r) is tuple and len(r) == m.dim for r in m.rows)
    assert all(type(v) is entry_type for r in m.rows for v in r)
    assert m == SquareMatrix(m.rows, m.mode)


KERNEL_ENTRIES = {
    "exact": ENTRIES,
    "float": st.one_of(st.just(0.0), st.just(-0.0), st.floats(-10, 10)),
}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["exact", "float"]).flatmap(
    lambda mode: st.integers(1, 8).flatmap(
        lambda d: st.lists(st.lists(st.lists(KERNEL_ENTRIES[mode], min_size=d, max_size=d),
                                    min_size=d, max_size=d), min_size=2, max_size=2)
        .map(lambda pair: (SquareMatrix(pair[0], mode), SquareMatrix(pair[1], mode))))),
    st.data())
def test_kernel_outputs_are_canonical(ab, data):
    a, b = ab
    d = a.dim
    s = data.draw(st.one_of(st.integers(-3, 3), KERNEL_ENTRIES[a.mode]))
    outputs = [a @ b, a + b, a - b, -a, a * s, s * a, a.transpose(),
               SquareMatrix.from_blocks([[a, b], [b, a]])]
    size = data.draw(st.integers(1, d))
    outputs.append(a.block(data.draw(st.integers(0, d - size)),
                           data.draw(st.integers(0, d - size)), size))
    new = data.draw(st.one_of(st.integers(-3, 3), KERNEL_ENTRIES[a.mode]))
    outputs.append(a.with_entry(data.draw(st.integers(0, d - 1)),
                                data.draw(st.integers(0, d - 1)), new))
    try:
        outputs.append(a.inverse())
    except SingularMatrixError:
        pass
    try:
        outputs.extend(a.lu_unit_lower())
    except DegeneratePointError:
        pass
    for kernel in (solve, conjugate):
        try:
            outputs.append(kernel(a, b))
        except SingularMatrixError:
            pass
    for out in outputs:
        assert out.mode == a.mode
        assert_canonical(out)


# -- exact kernel on integer pairs against the Fraction kernels it replaced -----
#
# The references are the Fraction loops of the exact kernel before it ran on
# (numerator, denominator) pairs: max-|.| Gauss-Jordan, det with row swaps,
# unpivoted Doolittle, the Hessenberg char_poly and the zero-skipping product.


def _nonzero_entries(row):
    return [(j, v) for j, v in enumerate(row) if v]


def _minus_multiple(row, f, nz):
    for j, w in nz:
        row[j] -= f * w


def reference_matmul(a, b):
    d = len(a)
    b_nz = [_nonzero_entries(r) for r in b]
    rows = []
    for ra in a:
        acc = [Fraction(0)] * d
        for k, x in _nonzero_entries(ra):
            for j, y in b_nz[k]:
                acc[j] += x * y
        rows.append(tuple(acc))
    return tuple(rows)


def reference_inverse(rows):
    d = len(rows)
    aug = [list(r) + [Fraction(int(i == j)) for j in range(d)] for i, r in enumerate(rows)]
    for c in range(d):
        p = max(range(c, d), key=lambda r: abs(aug[r][c]))
        if aug[p][c] == 0:
            raise SingularMatrixError(f"singular at column {c}")
        aug[c], aug[p] = aug[p], aug[c]
        piv = aug[c][c]
        nz = [(j, v / piv) for j, v in _nonzero_entries(aug[c])]
        for j, v in nz:
            aug[c][j] = v
        for r in range(d):
            if r != c and aug[r][c] != 0:
                _minus_multiple(aug[r], aug[r][c], nz)
    return tuple(tuple(r[d:]) for r in aug)


def reference_det(rows):
    d = len(rows)
    m = [list(r) for r in rows]
    sign, out = 1, Fraction(1)
    for c in range(d):
        p = max(range(c, d), key=lambda r: abs(m[r][c]))
        if m[p][c] == 0:
            return Fraction(0)
        if p != c:
            m[c], m[p] = m[p], m[c]
            sign = -sign
        out *= m[c][c]
        nz = _nonzero_entries(m[c])
        for r in range(c + 1, d):
            if m[r][c] != 0:
                _minus_multiple(m[r], m[r][c] / m[c][c], nz)
    return sign * out


def reference_lu_unit_lower(rows):
    d = len(rows)
    low = [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]
    up = [list(r) for r in rows]
    for c in range(d):
        if up[c][c] == 0:
            raise DegeneratePointError(f"vanishing leading minor at index {c}")
        nz = _nonzero_entries(up[c])
        for r in range(c + 1, d):
            if up[r][c] != 0:
                f = up[r][c] / up[c][c]
                low[r][c] = f
                _minus_multiple(up[r], f, nz)
    return tuple(map(tuple, low)), tuple(map(tuple, up))


def reference_char_poly(rows):
    h = [list(r) for r in rows]
    d = len(h)
    for m in range(1, d - 1):
        c = m - 1
        piv = next((i for i in range(m, d) if h[i][c]), None)
        if piv is None:
            continue
        if piv != m:
            h[piv], h[m] = h[m], h[piv]
            for row in h:
                row[piv], row[m] = row[m], row[piv]
        t = h[m][c]
        pivot_nz = _nonzero_entries(h[m])
        us = []
        for i in range(m + 1, d):
            if h[i][c]:
                u = h[i][c] / t
                _minus_multiple(h[i], u, pivot_nz)
                us.append((i, u))
        for row in h:
            for i, u in us:
                if row[i]:
                    row[m] += u * row[i]
    polys = [[Fraction(1)]]
    for m in range(d):
        p = [Fraction(0)] + polys[m]
        if h[m][m]:
            for k, a in enumerate(polys[m]):
                p[k] -= h[m][m] * a
        t = Fraction(1)
        for i in range(m - 1, -1, -1):
            t *= h[i + 1][i]
            if not t:
                break
            if h[i][m]:
                f = t * h[i][m]
                for k, a in enumerate(polys[i]):
                    p[k] -= f * a
        polys.append(p)
    return tuple(reversed(polys[d]))


def reference_band_solve(a, b):
    """The Fraction elimination of the band solve before it ran on pairs."""
    d = len(a)

    def entry(r, c):
        return a[r][c] if c < d else Fraction(0)

    top, rtop = [a[0][0], entry(0, 1), Fraction(0)], b[0]
    U, Y = [], []
    for c in range(d):
        if c + 1 < d:
            bot, rbot = [a[c + 1][c], a[c + 1][c + 1], entry(c + 1, c + 2)], b[c + 1]
            if top[0] == 0:
                top, bot, rtop, rbot = bot, top, rbot, rtop
        if top[0] == 0:
            raise SingularMatrixError(f"singular at column {c}")
        U.append(top)
        Y.append(rtop)
        if c + 1 < d:
            m = bot[0] / top[0]
            top = [bot[1] - m * top[1], bot[2] - m * top[2], Fraction(0)]
            rtop = [v - m * w for v, w in zip(rbot, rtop)]
    X = [None] * d
    for c in reversed(range(d)):
        u, row = U[c], Y[c]
        for k in (1, 2):
            if c + k < d and u[k] != 0:
                row = [v - u[k] * w for v, w in zip(row, X[c + k])]
        X[c] = tuple(v / u[0] for v in row)
    return tuple(X)


def outcome(call):
    """("ok", value) or (error class, message): what a caller can see."""
    try:
        return "ok", call()
    except (SingularMatrixError, DegeneratePointError) as exc:
        return type(exc), str(exc)


BIG = 2 ** 256
BIG_ENTRIES = st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG))


@st.composite
def rational_matrices(draw, dims=st.integers(1, 12)):
    """Sparse rational matrices: small entries at any density, or at most
    3d/2 nonzero entries of up to 256 bits (more of them make the exact
    Hessenberg reduction's intermediate entries swell to seconds a call).
    Sometimes a column is a combination of the earlier ones, so that the
    matrix is singular and a leading minor vanishes."""
    d = draw(dims)
    if draw(st.booleans()):
        rows = draw(st.lists(st.lists(ENTRIES, min_size=d, max_size=d),
                             min_size=d, max_size=d))
    else:
        rows = [[Fraction(0)] * d for _ in range(d)]
        index = st.integers(0, d - 1)
        for i, j, v in draw(st.lists(st.tuples(index, index, BIG_ENTRIES),
                                     max_size=d + d // 2)):
            rows[i][j] = v
    if d > 1 and draw(st.booleans()):
        c = draw(st.integers(1, d - 1))
        coeffs = draw(st.lists(ENTRIES, min_size=c, max_size=c))
        for r in rows:
            r[c] = sum(k * r[j] for j, k in enumerate(coeffs))
    return SquareMatrix(rows)


@settings(max_examples=60, deadline=None)
@given(rational_matrices(), st.data())
def test_pair_kernel_matches_fraction_reference(a, data):
    b = data.draw(rational_matrices(dims=st.just(a.dim)))
    assert (a @ b).rows == reference_matmul(a.rows, b.rows)
    assert a.det() == reference_det(a.rows)
    assert type(a.det()) is Fraction
    assert outcome(lambda: a.inverse().rows) == outcome(lambda: reference_inverse(a.rows))
    assert (outcome(lambda: tuple(m.rows for m in a.lu_unit_lower()))
            == outcome(lambda: reference_lu_unit_lower(a.rows)))
    assert a.char_poly() == reference_char_poly(a.rows)


@settings(max_examples=60, deadline=None)
@given(rational_matrices(), st.data())
def test_solve_and_conjugate_match_the_fraction_inverse(a, data):
    # products of the max-|.| Gauss-Jordan reference, which shares no code
    # with the elimination behind solve, conjugate and inverse
    b = data.draw(rational_matrices(dims=st.just(a.dim)))

    def by_reference_inverse():
        inv_b = reference_matmul(reference_inverse(a.rows), b.rows)
        return inv_b, reference_matmul(inv_b, a.rows)

    expected = outcome(by_reference_inverse)
    assert outcome(lambda: (solve(a, b).rows, conjugate(a, b).rows)) == expected


@st.composite
def row_dominant_systems(draw):
    """(A, B) as float rows, d = 1..12: A's k/8 entries make each diagonal
    entry outweigh the rest of its row by at least 1, and its rows are
    permuted; B has k/8 entries."""
    d = draw(st.integers(1, 12))

    def rows(bound):
        entries = st.integers(-8 * bound, 8 * bound).map(lambda k: k / 8)
        return draw(st.lists(st.lists(entries, min_size=d, max_size=d), min_size=d, max_size=d))

    a, b = rows(1), rows(2)
    for i, r in enumerate(a):
        r[i] = draw(st.sampled_from([-1, 1])) * (d + draw(st.integers(0, 8)) / 8)
    return [a[i] for i in draw(st.permutations(range(d)))], b


#: |float solve - exact solve| entrywise, within it times max(max|X|, 1), for
#: row_dominant_systems (||A^-1||_inf <= 1, ||A||_inf < 2d + 2); the worst
#: measured over 3000 such systems was 2.0e-16
FLOAT_SOLVE_RTOL = 1e-13


@settings(max_examples=60, deadline=None)
@given(row_dominant_systems())
def test_float_solve_agrees_with_exact_on_dense_matrices(ab):
    a, b = ab
    d = len(a)
    got = solve(SquareMatrix(a, "float"), SquareMatrix(b, "float"))
    exact = solve(*(SquareMatrix([[Fraction(v) for v in r] for r in m]) for m in ab))
    scale = max(exact.max_abs(), 1)
    assert all(abs(Fraction(got[i, j]) - exact[i, j]) <= FLOAT_SOLVE_RTOL * scale
               for i in range(d) for j in range(d))


@pytest.mark.parametrize("rows,column", [
    ([[0, 1], [0, 2]], 0),
    ([[1, 2], [2, 4]], 1),
    # the max-|.| pivot and the first nonzero pivot differ in column 0
    ([[1, 2, 3], [5, 1, 0], [7, 5, 6]], 2),
    ([[Fraction(1, 3), 0, 1, 0], [0, 0, 2, 0], [1, 0, 0, 5], [0, 0, 7, 1]], 1),
])
def test_singular_column_is_the_first_in_the_span_of_the_earlier(rows, column):
    m = SquareMatrix(rows)
    b = SquareMatrix.identity(m.dim)
    for call in (lambda: m.inverse(), lambda: reference_inverse(m.rows),
                 lambda: solve(m, b), lambda: conjugate(m, b)):
        with pytest.raises(SingularMatrixError, match=f"^singular at column {column}$"):
            call()
    assert m.det() == 0


@st.composite
def tridiagonal_matrices(draw):
    """Tridiagonal rational matrices, with a zero on the diagonal or a
    zero column of the band now and then, so that the solve interchanges
    rows and meets singular bands."""
    d = draw(st.integers(1, 8))
    band = st.one_of(st.just(Fraction(0)), ENTRIES, BIG_ENTRIES)
    rows = [[draw(band) if abs(i - j) <= 1 else Fraction(0) for j in range(d)]
            for i in range(d)]
    return SquareMatrix(rows)


@settings(max_examples=80, deadline=None)
@given(tridiagonal_matrices(), st.data())
def test_band_kernels_match_the_fraction_band_solve(a, data):
    b = data.draw(rational_matrices(dims=st.just(a.dim)))
    assert (outcome(lambda: solve(a, b).rows)
            == outcome(lambda: reference_band_solve(a.rows, b.rows)))
    product = (b @ a).rows
    assert (outcome(lambda: conjugate(a, b).rows)
            == outcome(lambda: reference_band_solve(a.rows, product)))


def test_band_conjugate_interchanges_past_a_zero_leading_pivot():
    a = SquareMatrix([[0, 2, 0, 0], [3, 1, 4, 0], [0, 5, 0, 6], [0, 0, 7, 1]])
    b = SquareMatrix([[Fraction(i - j, 1 + i * j) for j in range(4)] for i in range(4)])
    inv_b = reference_matmul(reference_inverse(a.rows), b.rows)
    assert conjugate(a, b).rows == reference_matmul(inv_b, a.rows)
    assert solve(a, b).rows == inv_b


@pytest.mark.parametrize("rows,column", [
    ([[0, 0], [0, 1]], 0),
    ([[1, 2], [2, 4]], 1),
    ([[1, 1, 0, 0], [1, 1, 1, 0], [0, 0, 1, 1], [0, 0, 1, 1]], 1),
    ([[2, 1, 0], [4, 2, 0], [0, 0, 0]], 1),
    ([[1, 1, 0], [0, 0, 0], [0, 1, 0]], 2),
])
def test_band_kernels_name_the_singular_column_as_before(rows, column):
    a = SquareMatrix(rows)
    b = SquareMatrix.identity(a.dim)
    match = f"^singular at column {column}$"
    for call in (lambda: reference_band_solve(a.rows, b.rows), lambda: solve(a, b),
                 lambda: conjugate(a, b)):
        with pytest.raises(SingularMatrixError, match=match):
            call()


PAIR_ENTRIES = st.one_of(ENTRIES, BIG_ENTRIES)


def is_reduced(n, d):
    return type(n) is int and type(d) is int and d > 0 and math.gcd(n, d) == 1


@settings(max_examples=60, deadline=None)
@given(st.lists(PAIR_ENTRIES, min_size=1, max_size=6), st.data())
def test_pair_helpers_keep_pairs_reduced(row, data):
    f = data.draw(PAIR_ENTRIES)
    pivot = data.draw(st.lists(PAIR_ENTRIES, min_size=len(row), max_size=len(row)))
    nums = [v.numerator for v in row]
    dens = [v.denominator for v in row]
    _addmul(nums, dens, f.numerator, f.denominator,
            [(j, w.numerator, w.denominator) for j, w in enumerate(pivot) if w])
    assert all(is_reduced(n, d) for n, d in zip(nums, dens))
    assert [Fraction(n, d) for n, d in zip(nums, dens)] == [
        v + f * w for v, w in zip(row, pivot)]
    for a, b in zip(row, pivot):
        if b:
            quotient = _div(a.numerator, a.denominator, b.numerator, b.denominator)
            product = _div(a.numerator, a.denominator, b.denominator, b.numerator)
            assert is_reduced(*quotient) and Fraction(*quotient) == a / b
            assert is_reduced(*product) and Fraction(*product) == a * b


def test_float_det_sign_follows_row_swaps():
    # max-|.| pivoting swaps rows 0 and 2 once, so the float det must flip sign
    rows = [[1, 0, 2], [0, 3, 1], [4, 1, 0]]
    exact = SquareMatrix(rows).det()
    got = SquareMatrix([[float(v) for v in r] for r in rows], "float").det()
    assert exact == -25
    assert got == pytest.approx(float(exact), rel=1e-12)


def float_tolerance(rows):
    return SINGULARITY_RTOL * max(max(abs(v) for r in rows for v in r), 1e-300)


def reference_float_det(rows):
    """A float det loop of its own: max-|.| pivots, whole-row updates, and 0.0
    at the first pivot below SINGULARITY_RTOL * max|entry|."""
    d = len(rows)
    m = [list(r) for r in rows]
    tol = float_tolerance(rows)
    sign, out = 1, 1.0
    for c in range(d):
        p = max(range(c, d), key=lambda r: abs(m[r][c]))
        if abs(m[p][c]) < tol:
            return 0.0
        if p != c:
            m[c], m[p] = m[p], m[c]
            sign = -sign
        out *= m[c][c]
        for r in range(c + 1, d):
            if m[r][c] != 0:
                f = m[r][c] / m[c][c]
                m[r] = [v - f * w for v, w in zip(m[r], m[c])]
    return sign * out


def reference_float_lu_unit_lower(rows):
    """A float Doolittle loop of its own: whole-row updates, each eliminated
    entry set to 0.0, and the SINGULARITY_RTOL rule on the diagonal."""
    d = len(rows)
    tol = float_tolerance(rows)
    low = [[1.0 if i == j else 0.0 for j in range(d)] for i in range(d)]
    up = [list(r) for r in rows]
    for c in range(d):
        if abs(up[c][c]) < tol:
            raise DegeneratePointError(f"vanishing leading minor at index {c}")
        for r in range(c + 1, d):
            if up[r][c] != 0:
                f = up[r][c] / up[c][c]
                low[r][c] = f
                up[r] = [v - f * w for v, w in zip(up[r], up[c])]
                up[r][c] = 0.0
    return tuple(map(tuple, low)), tuple(map(tuple, up))


# k/8 entries, signed zeros, and entries within 2^-20 of the pivot threshold
# of a matrix whose largest |entry| is 2
RTOL_EDGE = [s * 2 * SINGULARITY_RTOL * f for s in (1, -1) for f in (1 - 2 ** -20, 1, 1 + 2 ** -20)]
EDGE_ENTRIES = st.one_of(st.sampled_from([0.0, -0.0]), st.integers(-16, 16).map(lambda k: k / 8),
                         st.sampled_from(RTOL_EDGE))


@st.composite
def rtol_edge_matrices(draw):
    d = draw(st.integers(1, 6))
    rows = [[draw(EDGE_ENTRIES) for _ in range(d)] for _ in range(d)]
    rows[draw(st.integers(0, d - 1))][draw(st.integers(0, d - 1))] = 2.0
    return rows


@settings(max_examples=400, deadline=None)
@given(rtol_edge_matrices())
def test_float_det_and_lu_keep_the_bits_of_their_own_loops(rows):
    m = SquareMatrix(rows, "float")
    assert repr(m.det()) == repr(reference_float_det(rows))
    got = outcome(lambda: tuple(f.rows for f in m.lu_unit_lower()))
    assert repr(got) == repr(outcome(lambda: reference_float_lu_unit_lower(rows)))


@pytest.mark.parametrize("f,singular", [(1 - 2 ** -20, True), (1 + 2 ** -20, False)],
                         ids=["under", "over"])
def test_float_pivot_rule_at_the_threshold(f, singular):
    # max|entry| = 2, so the second pivot sits just under or just over the tolerance
    small = 2 * SINGULARITY_RTOL * f
    for rows in ([[2.0, 1.0], [-0.0, small]], [[2.0, 0.0], [1.0, small]]):
        m = SquareMatrix(rows, "float")
        expect = reference_float_det(rows)
        assert (m.det() == 0.0) is singular and repr(m.det()) == repr(expect)
        if singular:
            for call, error, message in (
                    (m.inverse, SingularMatrixError, "singular at column 1"),
                    (m.lu_unit_lower, DegeneratePointError, "vanishing leading minor at index 1")):
                with pytest.raises(error, match=f"^{message}$"):
                    call()
        else:
            assert repr(tuple(f.rows for f in m.lu_unit_lower())) == repr(
                reference_float_lu_unit_lower(rows))
            assert solve(m, SquareMatrix.identity(2, "float")) == m.inverse()


# -- the reversal conjugation as an index flip, and rejected inputs -------------


@settings(max_examples=60, deadline=None)
@given(sparse_matrices())
def test_flip_is_the_reversal_conjugation_exact(m):
    J = SquareMatrix.reversal(m.dim)
    assert m.flip() == J @ m @ J
    assert m.flip().flip() == m
    assert_canonical(m.flip())


# finite floats without -0.0, where J @ m @ J keeps every bit
FINITE_FLOATS = st.floats(allow_nan=False, allow_infinity=False).map(lambda v: v + 0.0)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8).flatmap(
    lambda d: st.lists(st.lists(FINITE_FLOATS, min_size=d, max_size=d),
                       min_size=d, max_size=d)))
def test_flip_is_the_reversal_conjugation_float(rows):
    m = SquareMatrix(rows, "float")
    J = SquareMatrix.reversal(m.dim, "float")
    assert repr(m.flip()) == repr(J @ m @ J)
    assert m.flip().flip() == m
    assert_canonical(m.flip())


def test_flip_keeps_signed_zeros_and_inf():
    m = SquareMatrix([[-0.0, math.inf], [1.0, 2.0]], "float")
    assert repr(m.flip().rows) == "((2.0, 1.0), (inf, -0.0))"


@pytest.mark.parametrize("rows,entry", [
    ([[math.inf, 1.0], [0.0, 1.0]], "inf at row 0, column 0"),
    ([[1.0, 2.0], [-math.inf, math.nan]], "-inf at row 1, column 0"),
    ([[1.0, 0.0], [0.0, math.nan]], "nan at row 1, column 1"),
], ids=["inf", "first-of-two", "nan"])
@pytest.mark.parametrize("op", ["inverse", "det", "lu_unit_lower", "char_poly"])
def test_float_elimination_names_the_first_non_finite_entry(rows, entry, op):
    m = SquareMatrix(rows, "float")
    with pytest.raises(ValueError, match=f"^non-finite entry {entry}$"):
        getattr(m, op)()


@pytest.mark.parametrize("rows,entry", [
    ([[2.0, 1.0], [1.0, math.inf]], "inf at row 1, column 1"),
    ([[math.nan, 1.0], [1.0, 2.0]], "nan at row 0, column 0"),
], ids=["inf", "nan"])
def test_float_solve_names_the_first_non_finite_entry(rows, entry):
    bad, good = SquareMatrix(rows, "float"), SquareMatrix.identity(2, "float")
    for call in (lambda: solve(bad, good), lambda: solve(good, bad)):
        with pytest.raises(ValueError, match=f"^non-finite entry {entry}$"):
            call()


def test_with_entry_rejects_an_index_outside_the_matrix():
    m = SquareMatrix([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    for i, j in ((-1, -1), (-1, 0), (0, -3), (3, 0), (0, 3)):
        with pytest.raises(IndexError):
            m.with_entry(i, j, 0)
    assert m.with_entry(2, 2, 0).rows == ((1, 2, 3), (4, 5, 6), (7, 8, 0))
