"""Dense square matrices over exact rationals or binary64 floats.

Two scalar modes are supported and never mixed inside one matrix:

* ``"exact"``  -- entries are :class:`fractions.Fraction` (ints are coerced);
  every identity test in this package runs in this mode, so results of
  products, inverses, LU factors and characteristic polynomials are exact.
* ``"float"``  -- entries are IEEE binary64; used only for flows and matrix
  exponentials.

Every exact-mode kernel (``@``, ``inverse``, ``det``, ``lu_unit_lower``,
``char_poly``, ``solve`` and ``conjugate``) runs on reduced (numerator,
denominator) int pairs: it splits its Fraction operands into int lists
once, updates rows in place with one multiply-add over the pivot row's
nonzero entries, which reduces each product and sum as Fraction's own
arithmetic does (Knuth, TAOCP vol. 2, 4.5.1), and builds one Fraction per
output entry.  One forward elimination, :func:`_exact_forward`, and one
back substitution, :func:`_exact_back`, serve ``inverse`` (the solve of
A X = E), ``det``, ``lu_unit_lower``, ``solve`` and ``conjugate``.  Its
pivot is the first nonzero entry at or below the diagonal; exact results
are unique, so neither the pivot rule nor the int pairs can change them.

Float mode mirrors this with :func:`_float_forward` (max-|.| pivots, or
none for ``lu_unit_lower``; dense row updates, since skipping v - f*0.0
can flip the sign of a zero) and :func:`_float_back`, and rejects a
non-finite entry with ValueError.  The pass stops only at a zero pivot;
``solve`` and ``conjugate`` raise only there, and so keep LAPACK gtsv's
bits on a tridiagonal A, while ``inverse``, ``det`` and ``lu_unit_lower``
count a pivot below SINGULARITY_RTOL * max|a_ij| as zero.

Both modes get the characteristic polynomial from one algorithm: a
Hessenberg reduction by similarity transforms and the Hessenberg
coefficient recurrence (Cohen, *A Course in Computational Algebraic Number
Theory*, Alg. 2.2.9), O(d^3).  Only the pivot rule differs by mode: the
first nonzero entry on or below the subdiagonal in exact mode, the largest
|.| there in float mode (Wilkinson, *The Algebraic Eigenvalue Problem*,
ch. 6).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isfinite, ldexp
from functools import reduce
from operator import add, mul
from typing import Iterable, Sequence, Union

from .errors import DegeneratePointError, ModeError, SingularMatrixError

Scalar = Union[Fraction, float]

#: Relative pivot threshold below which float-mode elimination reports
#: singularity / degeneracy.  Single documented constant for the package.
SINGULARITY_RTOL = 1e-12

#: The units (one, zero) of each scalar mode.
_UNITS = {"exact": (Fraction(1), Fraction(0)), "float": (1.0, 0.0)}
_ZERO = _UNITS["exact"][1]


def _units(mode: str) -> tuple:
    """The units (one, zero) of ``mode``; an unknown mode raises ValueError."""
    try:
        return _UNITS[mode]
    except KeyError:
        raise ValueError(f"unknown mode {mode!r}") from None


def classify_scalar(value) -> str:
    """Return the mode ("exact" or "float") a raw scalar belongs to."""
    if isinstance(value, bool):
        raise ModeError(f"boolean is not a scalar: {value!r}")
    if isinstance(value, (int, Fraction)):
        return "exact"
    if isinstance(value, float):
        return "float"
    raise ModeError(f"unsupported scalar type: {type(value).__name__}")


def coerce_scalar(value, mode: str) -> Scalar:
    """``value`` as a scalar of ``mode``.

    Ints are absorbed into either mode and Fractions into float mode; a
    float never enters exact mode.  Anything :func:`classify_scalar`
    rejects (a bool, a string, another type) raises ModeError.
    """
    if mode == "exact":
        if type(value) is Fraction:
            return value
        if classify_scalar(value) == "float":
            raise ModeError("refusing to coerce a float into exact mode")
        return Fraction(value)
    if type(value) is float:
        return value
    classify_scalar(value)
    return float(value)


def scalars_mode(values: Iterable) -> str:
    """Common mode of a collection of scalars; plain ints are absorbed into
    either mode, but mixing Fraction with float raises ModeError."""
    saw_float = saw_fraction = saw_any = False
    for v in values:
        classify_scalar(v)
        saw_any = True
        if isinstance(v, float):
            saw_float = True
        elif isinstance(v, Fraction):
            saw_fraction = True
    if not saw_any:
        raise ModeError("empty scalar collection")
    if saw_float and saw_fraction:
        raise ModeError("mixing exact and float scalars")
    return "float" if saw_float else "exact"


def format_scalar(value: Scalar):
    """JSON form: rationals as "p/q" strings, floats as numbers."""
    if isinstance(value, Fraction):
        return str(value)
    return value


def parse_scalar(obj) -> Scalar:
    """Inverse of :func:`format_scalar`: strings mean exact, numbers float."""
    if isinstance(obj, str):
        return Fraction(obj)
    if isinstance(obj, bool):
        raise ModeError(f"boolean is not a scalar: {obj!r}")
    if isinstance(obj, (int, float)):
        return float(obj)
    raise ModeError(f"cannot parse scalar from {obj!r}")


def _check_finite(rows) -> None:
    """Raise ValueError naming the first non-finite entry of float rows."""
    for i, r in enumerate(rows):
        if not all(map(isfinite, r)):
            j = next(j for j, v in enumerate(r) if not isfinite(v))
            raise ValueError(f"non-finite entry {r[j]!r} at row {i}, column {j}")


def close(a, b, mode: str, rtol: float, scale: float = 1.0) -> bool:
    """Whether a and b agree: ``a == b`` in exact mode, and
    |a - b| <= rtol * max(scale, 1) in float mode, where NaN is close to
    nothing.  The one comparison rule of every checked tolerance."""
    if mode == "exact":
        return a == b
    return abs(a - b) <= rtol * max(scale, 1.0)


class SquareMatrix:
    """Immutable d x d matrix with a single scalar mode."""

    __slots__ = ("_rows", "_dim", "_mode")

    def __init__(self, rows: Sequence[Sequence], mode: str | None = None):
        rows = [tuple(r) for r in rows]
        d = len(rows)
        if d < 1 or any(len(r) != d for r in rows):
            raise ValueError("rows must form a nonempty square array")
        if mode is None:
            mode = scalars_mode(v for r in rows for v in r)
        else:
            _units(mode)
        self._rows = tuple(tuple(coerce_scalar(v, mode) for v in r) for r in rows)
        self._dim = d
        self._mode = mode

    @classmethod
    def _trusted(cls, rows: tuple, mode: str) -> "SquareMatrix":
        """A matrix that takes ``rows`` as they are, unchecked.

        The caller guarantees what ``__init__`` would establish: ``rows`` is
        a nonempty square tuple of tuples, and every entry is exactly a
        Fraction in exact mode or exactly a float in float mode.  Kernel
        outputs are built this way; input from outside goes through
        ``__init__``.
        """
        self = object.__new__(cls)
        self._rows = rows
        self._dim = len(rows)
        self._mode = mode
        return self

    # -- construction -----------------------------------------------------

    @classmethod
    def identity(cls, d: int, mode: str = "exact") -> "SquareMatrix":
        one, zero = _units(mode)
        return cls([[one if i == j else zero for j in range(d)] for i in range(d)], mode)

    @classmethod
    def zero(cls, d: int, mode: str = "exact") -> "SquareMatrix":
        zero = _units(mode)[1]
        return cls([[zero] * d for _ in range(d)], mode)

    @classmethod
    def reversal(cls, d: int, mode: str = "exact") -> "SquareMatrix":
        """The anti-diagonal permutation J = sum_i E_{i, d+1-i}."""
        one, zero = _units(mode)
        return cls([[one if j == d - 1 - i else zero for j in range(d)] for i in range(d)], mode)

    @classmethod
    def from_blocks(cls, blocks: Sequence[Sequence["SquareMatrix"]]) -> "SquareMatrix":
        """Assemble a matrix from a 2x2 (or k x k) grid of equal-size blocks."""
        k = len(blocks)
        n = blocks[0][0].dim
        mode = blocks[0][0].mode
        rows = []
        for bi in range(k):
            for r in range(n):
                row = []
                for bj in range(k):
                    blk = blocks[bi][bj]
                    if blk.dim != n or blk.mode != mode:
                        raise ModeError("blocks must share size and mode")
                    row.extend(blk._rows[r])
                rows.append(tuple(row))
        return cls._trusted(tuple(rows), mode)

    # -- basic accessors ---------------------------------------------------

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def mode(self) -> str:
        return self._mode

    @property
    def rows(self):
        return self._rows

    def __getitem__(self, ij):
        i, j = ij
        return self._rows[i][j]

    def __eq__(self, other):
        if not isinstance(other, SquareMatrix):
            return NotImplemented
        return self._mode == other._mode and self._rows == other._rows

    def __hash__(self):
        return hash((self._mode, self._rows))

    def __repr__(self):
        body = ",\n ".join("[" + ", ".join(map(str, r)) + "]" for r in self._rows)
        return f"SquareMatrix(\n {body})"

    def block(self, i0: int, j0: int, size: int) -> "SquareMatrix":
        if min(i0, j0) < 0 or size < 1 or max(i0, j0) + size > self._dim:
            raise ValueError(f"no {size} x {size} block at ({i0}, {j0})")
        return SquareMatrix._trusted(
            tuple(r[j0:j0 + size] for r in self._rows[i0:i0 + size]), self._mode)

    def with_entry(self, i: int, j: int, value) -> "SquareMatrix":
        if not (0 <= i < self._dim and 0 <= j < self._dim):
            raise IndexError(f"no entry ({i}, {j})")
        rows = [list(r) for r in self._rows]
        rows[i][j] = coerce_scalar(value, self._mode)
        return SquareMatrix._trusted(tuple(map(tuple, rows)), self._mode)

    def _check_compatible(self, other: "SquareMatrix"):
        if not isinstance(other, SquareMatrix):
            raise TypeError("expected a SquareMatrix")
        if self._dim != other._dim:
            raise ValueError(f"dimension mismatch: {self._dim} vs {other._dim}")
        if self._mode != other._mode:
            raise ModeError("mixing exact and float matrices")

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        self._check_compatible(other)
        return SquareMatrix._trusted(
            tuple(tuple([a + b for a, b in zip(ra, rb)])
                  for ra, rb in zip(self._rows, other._rows)),
            self._mode)

    def __sub__(self, other):
        self._check_compatible(other)
        return SquareMatrix._trusted(
            tuple(tuple([a - b for a, b in zip(ra, rb)])
                  for ra, rb in zip(self._rows, other._rows)),
            self._mode)

    def __neg__(self):
        return SquareMatrix._trusted(tuple(tuple([-a for a in r]) for r in self._rows),
                                     self._mode)

    def __matmul__(self, other):
        self._check_compatible(other)
        if self._mode == "exact":
            return SquareMatrix._trusted(_exact_matmul(self._rows, other._rows), "exact")
        cols = list(zip(*other._rows))
        # reduce, not sum(): sum() compensates float sums from Python 3.12 on,
        # and in-order sums give the same bits on every version
        return SquareMatrix._trusted(
            tuple(tuple([reduce(add, map(mul, ra, col), 0) for col in cols])
                  for ra in self._rows),
            self._mode)

    def __mul__(self, scalar):
        s = coerce_scalar(scalar, self._mode)
        return SquareMatrix._trusted(tuple(tuple(a * s for a in r) for r in self._rows),
                                     self._mode)

    __rmul__ = __mul__

    def commutator(self, other: "SquareMatrix") -> "SquareMatrix":
        """[self, other] = self@other - other@self."""
        return self @ other - other @ self

    def flip(self) -> "SquareMatrix":
        """``J @ self @ J`` for the reversal J, as an index flip; in float mode
        it keeps a -0.0 or an inf, which the products turn into 0.0 or NaNs."""
        return SquareMatrix._trusted(tuple(r[::-1] for r in reversed(self._rows)), self._mode)

    def transpose(self) -> "SquareMatrix":
        return SquareMatrix._trusted(tuple(zip(*self._rows)), self._mode)

    def trace(self) -> Scalar:
        return reduce(add, (self._rows[i][i] for i in range(self._dim)), 0)

    def max_abs(self) -> float:
        return max(abs(v) for r in self._rows for v in r)

    def inverse(self) -> "SquareMatrix":
        """The X with self X = E, by :func:`solve`'s two passes on [self | E].

        Raises SingularMatrixError("singular at column c") at the first
        column in the span of the earlier ones in rational mode, or whose
        pivot is below SINGULARITY_RTOL * max|entry| in float mode.  A
        non-finite float entry raises ValueError.
        """
        d = self._dim
        eye = [[int(i == j) for j in range(d)] for i in range(d)]
        if self._mode == "exact":
            ones = [[1] * d for _ in eye]
            return SquareMatrix._trusted(_exact_solve(self._rows, eye, ones), "exact")
        rows, _, c = self._float_forward_rtol([list(map(float, r)) for r in eye])
        if c < d:
            raise SingularMatrixError(f"singular at column {c}")
        return SquareMatrix._trusted(_float_back(rows, d), "float")

    def det(self) -> Scalar:
        """The sign of the interchanges times the product of the pivots of
        the forward pass, so exact in rational mode; 0 when some column has
        no pivot, or in float mode one below SINGULARITY_RTOL * max|entry|.
        A non-finite float entry raises ValueError."""
        d = self._dim
        if self._mode == "exact":
            nums, dens = _split(self._rows)
            pivots = _exact_forward(nums, dens, d)
            if len(pivots) < d:
                return Fraction(0)
            diagonal = [Fraction(nums[c][c], dens[c][c]) for c in range(d)]
        else:
            rows, pivots, c = self._float_forward_rtol([[]] * d)
            if c < d:
                return 0.0
            diagonal = [r[c] for c, r in enumerate(rows)]
        return (-1) ** sum(p != c for c, p in enumerate(pivots)) * reduce(mul, diagonal)

    def lu_unit_lower(self) -> tuple["SquareMatrix", "SquareMatrix"]:
        """Doolittle factorization self = lower @ upper, without pivoting.

        Both triangles are read off the forward pass; the factorization is
        unique when it exists.  Raises DegeneratePointError when a leading
        principal minor vanishes: at the first column that needs an
        interchange or has no pivot in rational mode, or whose pivot is
        below SINGULARITY_RTOL * max|entry| in float mode.  A non-finite
        float entry raises ValueError.
        """
        d = self._dim
        one, zero = _units(self._mode)
        if self._mode == "exact":
            nums, dens = _split(self._rows)
            pivots = _exact_forward(nums, dens, d)
            c = next((c for c, p in enumerate(pivots) if p != c), len(pivots))
            lu = _fraction_rows(nums, dens)
            up = tuple((zero,) * i + r[i:] for i, r in enumerate(lu))
        else:
            lu, _, c = self._float_forward_rtol([[]] * d, swap=False)
            up = _float_upper(lu)
        if c < d:
            raise DegeneratePointError(f"vanishing leading minor at index {c}")
        # a zero that the pass skipped is no multiplier: lower reads 0 there
        return (SquareMatrix._trusted(tuple(tuple(v or zero for v in r[:i]) + (one,)
                                            + (zero,) * (d - 1 - i)
                                            for i, r in enumerate(lu)), self._mode),
                SquareMatrix._trusted(up, self._mode))

    def _float_forward_rtol(self, b_rows: list, swap: bool = True) -> tuple[list, list, int]:
        """The rows and pivot rows of :func:`_float_forward` on [self | B], and
        the first column whose pivot is below SINGULARITY_RTOL * max|entry|
        (d if none); a non-finite entry raises ValueError."""
        rows, pivots = _float_forward(self._rows, b_rows, swap)
        tol = SINGULARITY_RTOL * max(self.max_abs(), 1e-300)
        return rows, pivots, next(
            (c for c in range(len(pivots)) if abs(rows[c][c]) < tol), len(pivots))

    def char_poly(self) -> tuple:
        """Coefficients of det(lambda*E - self), highest degree first.

        A non-finite float entry raises ValueError.
        """
        if self._mode == "exact":
            return _hessenberg_char_poly(self._rows)
        _check_finite(self._rows)
        return _float_hessenberg_char_poly(self._rows)

    # -- serialization -------------------------------------------------------

    def to_json_obj(self):
        return [[format_scalar(v) for v in r] for r in self._rows]


# -- exact kernel on reduced integer pairs ------------------------------------
#
# A matrix is a list of numerator rows and a list of denominator rows.  Every
# pair is kept reduced with a positive denominator, zero as (0, 1).


def _split(rows) -> tuple[list, list]:
    """The numerator rows and the denominator rows of Fraction rows."""
    return ([[v.numerator for v in r] for r in rows],
            [[v.denominator for v in r] for r in rows])


def _nonzeros(nums: list, dens: list) -> list:
    """The (index, numerator, denominator) triples of a row's nonzero entries."""
    return [(j, n, dens[j]) for j, n in enumerate(nums) if n]


def _fraction_rows(num_rows, den_rows) -> tuple:
    """Fraction rows of reduced pair rows; every zero entry is one shared
    Fraction(0), which is not normalised again."""
    return tuple(tuple([Fraction(n, d) if n else _ZERO for n, d in zip(nums, dens)])
                 for nums, dens in zip(num_rows, den_rows))


def _addmul(nums: list, dens: list, fn: int, fd: int, pivot: list) -> None:
    """row += (fn/fd) * pivot_row, in place.

    The row is ``nums``/``dens``; ``pivot`` lists the pivot row's nonzero
    entries as from :func:`_nonzeros`, and only those are updated.  Each
    product and sum is reduced as Fraction's own ``_mul`` and ``_add``
    reduce them (Knuth, TAOCP vol. 2, 4.5.1): from reduced operands with
    positive denominators it gives a reduced pair with a positive
    denominator, and a zero sum comes out as (0, 1).
    """
    for j, wn, wd in pivot:
        g1 = gcd(fn, wd)
        g2 = gcd(wn, fd)
        if g1 > 1:
            pn, pd = fn // g1, wd // g1
        else:
            pn, pd = fn, wd
        if g2 > 1:
            pn *= wn // g2
            pd *= fd // g2
        else:
            pn *= wn
            pd *= fd
        an = nums[j]
        if not an:
            nums[j] = pn
            dens[j] = pd
            continue
        ad = dens[j]
        g = gcd(ad, pd)
        if g == 1:
            nums[j] = an * pd + pn * ad
            dens[j] = ad * pd
            continue
        s = ad // g
        t = an * (pd // g) + pn * s
        h = gcd(t, g)
        if h == 1:
            nums[j] = t
            dens[j] = s * pd
        else:
            nums[j] = t // h
            dens[j] = s * (pd // h)


def _div(an: int, ad: int, bn: int, bd: int) -> tuple[int, int]:
    """The reduced pair of (an/ad) / (bn/bd), for reduced pairs and bn != 0,
    as Fraction's ``_div``; so for b != 0, ``_div(an, ad, bd, bn)`` is the
    product a * b."""
    g1 = gcd(an, bn)
    if g1 > 1:
        an //= g1
        bn //= g1
    g2 = gcd(bd, ad)
    if g2 > 1:
        ad //= g2
        bd //= g2
    n, d = an * bd, bn * ad
    if d < 0:
        return -n, -d
    return n, d


def _first_pivot(nums: list, c: int, start: int):
    """The first row at or below ``start`` whose entry in column c is nonzero."""
    return next((r for r in range(start, len(nums)) if nums[r][c]), None)


def _exact_matmul_pairs(a_rows, b_rows) -> tuple[list, list]:
    """a @ b of Fraction rows over the nonzero entries of each, as the
    numerator rows and the denominator rows."""
    d = len(a_rows)
    b_nz = [[(j, v.numerator, v.denominator) for j, v in enumerate(r) if v] for r in b_rows]
    out_n, out_d = [], []
    for r in a_rows:
        nums, dens = [0] * d, [1] * d
        for k, v in enumerate(r):
            if v:
                _addmul(nums, dens, v.numerator, v.denominator, b_nz[k])
        out_n.append(nums)
        out_d.append(dens)
    return out_n, out_d


def _exact_matmul(a_rows, b_rows) -> tuple:
    """a @ b over the nonzero entries of each, as Fraction rows."""
    return _fraction_rows(*_exact_matmul_pairs(a_rows, b_rows))


def _exact_forward(nums: list, dens: list, d: int) -> list:
    """Eliminate the first d columns of the pair rows [A | B] in place.

    The pivot of column c is the first nonzero entry at or below the
    diagonal, and its row is swapped into row c.  Each multiplier
    a_rc / a_cc is kept in the entry (r, c) it zeroes, so the entries below
    the diagonal end up holding the unit lower factor L and the others U
    and the reduced B, with P A = L U for the interchanges P (Golub & Van
    Loan, *Matrix Computations*, 3.4).  Returns each column's pivot row.
    The list stops short of d at the first column without a pivot, which
    is the first column in the span of the earlier ones; the elimination
    stops there.
    """
    pivots = []
    for c in range(d):
        p = _first_pivot(nums, c, c)
        if p is None:
            break
        pivots.append(p)
        nums[c], nums[p] = nums[p], nums[c]
        dens[c], dens[p] = dens[p], dens[c]
        rn, rd = nums[c], dens[c]
        pn, pd = rn[c], rd[c]
        pivot = [(j, rn[j], rd[j]) for j in range(c + 1, len(rn)) if rn[j]]
        for r in range(c + 1, d):
            if nums[r][c]:
                fn, fd = _div(nums[r][c], dens[r][c], pn, pd)
                nums[r][c], dens[r][c] = fn, fd
                _addmul(nums[r], dens[r], -fn, fd, pivot)
    return pivots


def _exact_back(nums: list, dens: list, d: int) -> tuple:
    """X with U X = Y as Fraction rows, for the pair rows [U | Y] that
    :func:`_exact_forward` leaves: x_c = (y_c - sum_{k>c} u_ck x_k) / u_cc
    from the last row up, over the nonzero u_ck only."""
    x_nums, x_dens, x_nz = [None] * d, [None] * d, [None] * d
    for c in reversed(range(d)):
        un, ud = nums[c], dens[c]
        rn, rd = un[d:], ud[d:]
        for k in range(c + 1, d):
            if un[k]:
                _addmul(rn, rd, -un[k], ud[k], x_nz[k])
        pn, pd = un[c], ud[c]
        for j, v in enumerate(rn):
            if v:
                rn[j], rd[j] = _div(v, rd[j], pn, pd)
        x_nums[c], x_dens[c] = rn, rd
        x_nz[c] = _nonzeros(rn, rd)
    return _fraction_rows(x_nums, x_dens)


def _exact_solve(a_rows, b_nums: list, b_dens: list) -> tuple:
    """X with A X = B as Fraction rows, for Fraction rows of A and the
    pair rows of B, which become part of the elimination's rows."""
    d = len(a_rows)
    nums, dens = _split(a_rows)
    for r in range(d):
        nums[r] += b_nums[r]
        dens[r] += b_dens[r]
    c = len(_exact_forward(nums, dens, d))
    if c < d:
        raise SingularMatrixError(f"singular at column {c}")
    return _exact_back(nums, dens, d)


def _float_forward(a_rows, b_rows, swap: bool = True) -> tuple[list, list]:
    """:func:`_exact_forward` on the float rows [A | B], returned with the
    pivot rows, which stop short of d at the first zero pivot.  The pivot is
    the largest |.| at or below the diagonal, or the diagonal entry if not
    ``swap``; a row with a zero in the pivot column is skipped.  A
    non-finite entry raises ValueError."""
    _check_finite(a_rows)
    _check_finite(b_rows)
    d = len(a_rows)
    rows = [list(a) + list(b) for a, b in zip(a_rows, b_rows)]
    pivots = []
    for c in range(d):
        p = max(range(c, d), key=lambda r: abs(rows[r][c])) if swap else c
        if rows[p][c] == 0:
            break
        pivots.append(p)
        rows[c], rows[p] = rows[p], rows[c]
        piv, w = rows[c][c], rows[c][c + 1:]
        for row in rows[c + 1:]:
            if row[c] != 0:
                f = row[c] = row[c] / piv
                row[c + 1:] = [v - f * x for v, x in zip(row[c + 1:], w)]
    return rows, pivots


def _float_back(rows: list, d: int) -> tuple:
    """X with U X = Y as float rows, for the rows [U | Y] that
    :func:`_float_forward` leaves, over the nonzero u_ck only."""
    x = [None] * d
    for c in reversed(range(d)):
        u = rows[c]
        row = u[d:]
        for k in range(c + 1, d):
            if u[k] != 0:
                row = [v - u[k] * w for v, w in zip(row, x[k])]
        x[c] = tuple([v / u[c] for v in row])
    return tuple(x)


def _float_upper(lu: list) -> tuple:
    """U off :func:`_float_forward`'s rows without interchanges, with the
    signed zeros below the diagonal of a pass that updates whole rows: a
    zero it skipped keeps its sign until a later update of its row."""
    up = []
    for i, r in enumerate(lu):
        below = [v if v == 0 else 0.0 for v in r[:i]]
        for k, f in enumerate(r[:i]):
            if f != 0:
                below[:k] = [z - f * u for z, u in zip(below[:k], up[k])]
        up.append(tuple(below + r[i:]))
    return tuple(up)


def _hessenberg_char_poly(rows) -> tuple:
    """det(lambda*E - H) of Fraction rows, coefficients highest degree first
    (Cohen, Alg. 2.2.9).

    H is reduced to upper Hessenberg form by similarity transforms whose
    pivot is the first nonzero entry on or below the subdiagonal; a column
    without one is already reduced.  The leading principal minors p_0..p_d
    of lambda*E - H then follow the recurrence
    p_{m+1} = (lambda - h_mm) p_m - sum_{i<m} h_im (h_{i+1,i}..h_{m,m-1}) p_i,
    whose sum stops at the first zero subdiagonal entry.
    """
    d = len(rows)
    nums, dens = _split(rows)
    for m in range(1, d - 1):
        c = m - 1
        p = _first_pivot(nums, c, m)
        if p is None:
            continue
        if p != m:
            nums[p], nums[m] = nums[m], nums[p]
            dens[p], dens[m] = dens[m], dens[p]
            for rn, rd in zip(nums, dens):
                rn[p], rn[m] = rn[m], rn[p]
                rd[p], rd[m] = rd[m], rd[p]
        tn, td = nums[m][c], dens[m][c]
        pivot = _nonzeros(nums[m], dens[m])
        # R_i -= u_i R_m for every i > m, then C_m += u_i C_i for every i:
        # the row operations commute, and the column operations multiply by
        # the inverse of their product on the right.
        us = []
        for i in range(m + 1, d):
            if nums[i][c]:
                un, ud = _div(nums[i][c], dens[i][c], tn, td)
                _addmul(nums[i], dens[i], -un, ud, pivot)
                us.append((i, un, ud))
        if us:
            col_n = [rn[m] for rn in nums]
            col_d = [rd[m] for rd in dens]
            for i, un, ud in us:
                _addmul(col_n, col_d, un, ud,
                        [(r, rn[i], dens[r][i]) for r, rn in enumerate(nums) if rn[i]])
            for rn, rd, n, dd in zip(nums, dens, col_n, col_d):
                rn[m] = n
                rd[m] = dd
    # p_k, lowest degree first, as numerator and denominator lists; and the
    # nonzero entries of each
    polys = [([1], [1])]
    polys_nz = [[(0, 1, 1)]]
    for m in range(d):
        pn, pd = [0] + polys[m][0], [1] + polys[m][1]
        if nums[m][m]:
            _addmul(pn, pd, -nums[m][m], dens[m][m], polys_nz[m])
        tn, td = 1, 1
        for i in range(m - 1, -1, -1):
            if not nums[i + 1][i]:
                break
            tn, td = _div(tn, td, dens[i + 1][i], nums[i + 1][i])  # t *= h_{i+1,i}
            if nums[i][m]:
                fn, fd = _div(tn, td, dens[i][m], nums[i][m])  # t * h_im
                _addmul(pn, pd, -fn, fd, polys_nz[i])
        polys.append((pn, pd))
        polys_nz.append(_nonzeros(pn, pd))
    pn, pd = polys[d]
    return tuple(map(Fraction, reversed(pn), reversed(pd)))


def _float_hessenberg_char_poly(rows) -> tuple:
    """det(lambda*E - H) of float rows, coefficients highest degree first:
    :func:`_hessenberg_char_poly` step by step on plain floats.

    The pivot is the largest |.| on or below the subdiagonal, so every
    multiplier has |u| <= 1; a column whose largest |.| there is 0 is
    already reduced.  Row updates are dense, as in the other float kernels.
    """
    d = len(rows)
    h = [list(r) for r in rows]
    for m in range(1, d - 1):
        c = m - 1
        p = max(range(m, d), key=lambda r: abs(h[r][c]))
        if h[p][c] == 0:
            continue
        if p != m:
            h[p], h[m] = h[m], h[p]
            for r in h:
                r[p], r[m] = r[m], r[p]
        t = h[m][c]
        pivot = h[m]
        us = []
        for i in range(m + 1, d):
            if h[i][c] != 0:
                u = h[i][c] / t
                h[i] = [v - u * w for v, w in zip(h[i], pivot)]
                us.append((i, u))
        for i, u in us:
            for r in h:
                r[m] += u * r[i]
    polys = [[1.0]]
    for m in range(d):
        p = [0.0] + polys[m]
        if h[m][m] != 0:
            for k, a in enumerate(polys[m]):
                p[k] -= h[m][m] * a
        t = 1.0
        for i in range(m - 1, -1, -1):
            if h[i + 1][i] == 0:
                break
            t *= h[i + 1][i]
            if h[i][m] != 0:
                f = t * h[i][m]
                for k, a in enumerate(polys[i]):
                    p[k] -= f * a
        polys.append(p)
    return tuple(reversed(polys[d]))


def solve(A: SquareMatrix, B: SquareMatrix) -> SquareMatrix:
    """X with A X = B, by Gaussian elimination (Golub & Van Loan, *Matrix
    Computations*, 3.2 and 3.4).

    Exact mode runs on int pairs, with the first nonzero pivot at or below
    the diagonal, so it is exact.  Float mode pivots on the largest |.|
    there and skips zero multipliers and zero entries of U, so on a
    tridiagonal A it picks LAPACK's gtsv pivots and does gtsv's operations
    (Higham, *Accuracy and Stability of Numerical Algorithms*, 9.5); a
    non-finite float entry of A or B raises ValueError.  A zero pivot
    raises SingularMatrixError("singular at column c"), with c the first
    column of A in the span of the earlier ones in exact mode.
    """
    A._check_compatible(B)
    if A.mode == "exact":
        return SquareMatrix._trusted(_exact_solve(A.rows, *_split(B.rows)), "exact")
    rows, pivots = _float_forward(A.rows, B.rows)
    if len(pivots) < A.dim:
        raise SingularMatrixError(f"singular at column {len(pivots)}")
    return SquareMatrix._trusted(_float_back(rows, A.dim), "float")


def conjugate(K: SquareMatrix, L: SquareMatrix) -> SquareMatrix:
    """K^{-1} L K: the X with K X = L K, by :func:`solve`.

    In exact mode the product L K enters the elimination as int pairs, so
    no Fraction of it is built.
    """
    K._check_compatible(L)
    if K.mode == "exact":
        return SquareMatrix._trusted(
            _exact_solve(K.rows, *_exact_matmul_pairs(L.rows, K.rows)), "exact")
    return solve(K, L @ K)


def mat_exp(m: SquareMatrix, t: float = 1.0) -> SquareMatrix:
    """exp(t*m) for float-mode matrices, by scaling and squaring of a Taylor
    polynomial (Moler & Van Loan, SIAM Review 45 (2003) 3, method 3).

    s is the smallest s >= 0 with ||t*m / 2^s||_inf <= 1/2.  There the
    degree-14 Taylor polynomial of exp is summed by Horner's rule; its
    remainder is at most (1/2)^15 e^(1/2) / 15! ~ 3.8e-17, below the unit
    roundoff.  The sum is then squared s times.  A non-finite entry of t*m
    raises ValueError.
    """
    if m.mode != "float":
        raise ModeError("mat_exp requires a float-mode matrix")
    a = m * t
    _check_finite(a.rows)
    norm = max(reduce(add, map(abs, r), 0) for r in a.rows)
    s = 0
    while norm > ldexp(0.5, s):
        s += 1
    a = a * ldexp(1.0, -s)
    eye = SquareMatrix.identity(m.dim, "float")
    p = eye
    for k in range(14, 0, -1):
        p = eye + (a @ p) * (1.0 / k)
    for _ in range(s):
        p = p @ p
    return p
