"""Dense square matrices over exact rationals or binary64 floats.

Two scalar modes are supported and never mixed inside one matrix:

* ``"exact"``  -- entries are :class:`fractions.Fraction` (ints are coerced);
  every identity test in this package runs in this mode, so results of
  products, inverses, LU factors and characteristic polynomials are exact.
* ``"float"``  -- entries are IEEE binary64; used only for flows and matrix
  exponentials.

In exact mode the characteristic polynomial comes from a Hessenberg
reduction and the Hessenberg coefficient recurrence (Cohen, *A Course in
Computational Algebraic Number Theory*, Alg. 2.2.9), O(d^3); in float mode
from the Faddeev-LeVerrier recurrence, O(d^4), run on plain lists and kept
bit for bit (its roundoff is large from d = 10 up) until a float Hessenberg
route replaces it.  Exact-mode products and eliminations skip zero
entries, since the Lax factors are sparse.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Iterable, Sequence, Union

from .errors import DegeneratePointError, ModeError, SingularMatrixError

Scalar = Union[Fraction, float]

#: Relative pivot threshold below which float-mode elimination reports
#: singularity / degeneracy.  Single documented constant for the package.
SINGULARITY_RTOL = 1e-12

_ZERO = Fraction(0)


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
        elif mode not in ("exact", "float"):
            raise ValueError(f"unknown mode {mode!r}")
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
        one = Fraction(1) if mode == "exact" else 1.0
        zero = Fraction(0) if mode == "exact" else 0.0
        return cls([[one if i == j else zero for j in range(d)] for i in range(d)], mode)

    @classmethod
    def zero(cls, d: int, mode: str = "exact") -> "SquareMatrix":
        zero = Fraction(0) if mode == "exact" else 0.0
        return cls([[zero] * d for _ in range(d)], mode)

    @classmethod
    def reversal(cls, d: int, mode: str = "exact") -> "SquareMatrix":
        """The anti-diagonal permutation J = sum_i E_{i, d+1-i}."""
        one = Fraction(1) if mode == "exact" else 1.0
        zero = Fraction(0) if mode == "exact" else 0.0
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
        rows = tuple(r[j0:j0 + size] for r in self._rows[i0:i0 + size])
        if size < 1 or len(rows) != size or any(len(r) != size for r in rows):
            raise ValueError("rows must form a nonempty square array")
        return SquareMatrix._trusted(rows, self._mode)

    def with_entry(self, i: int, j: int, value) -> "SquareMatrix":
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
        d = self._dim
        if self._mode == "exact":
            other_nz = [_nonzero_entries(rb) for rb in other._rows]
            rows = []
            for ra in self._rows:
                acc = [_ZERO] * d  # a Fraction, so untouched entries stay exact
                for k, a in _nonzero_entries(ra):
                    for j, b in other_nz[k]:
                        acc[j] += a * b
                rows.append(tuple(acc))
            return SquareMatrix._trusted(tuple(rows), "exact")
        cols = list(zip(*other._rows))
        return SquareMatrix._trusted(
            tuple(tuple([sum(map(mul, ra, col)) for col in cols]) for ra in self._rows),
            self._mode)

    def __mul__(self, scalar):
        s = coerce_scalar(scalar, self._mode)
        return SquareMatrix([[a * s for a in r] for r in self._rows], self._mode)

    __rmul__ = __mul__

    def commutator(self, other: "SquareMatrix") -> "SquareMatrix":
        """[self, other] = self@other - other@self."""
        return self @ other - other @ self

    def transpose(self) -> "SquareMatrix":
        return SquareMatrix._trusted(tuple(zip(*self._rows)), self._mode)

    def trace(self) -> Scalar:
        return sum(self._rows[i][i] for i in range(self._dim))

    def max_abs(self) -> float:
        return max(abs(v) for r in self._rows for v in r)

    def _pivot_nonzeros(self, row):
        """The (j, entry) pairs an exact-mode row update needs; None in float
        mode, whose updates stay dense: skipping v - f*0.0 can flip the sign
        of a zero."""
        return _nonzero_entries(row) if self._mode == "exact" else None

    def _pivot_is_zero(self, pivot, scale) -> bool:
        if self._mode == "exact":
            return pivot == 0
        return abs(pivot) < SINGULARITY_RTOL * max(scale, 1e-300)

    def inverse(self) -> "SquareMatrix":
        """Gauss-Jordan with partial pivoting; exact in rational mode.

        Raises SingularMatrixError when a pivot vanishes (exact zero test
        in rational mode, |pivot| < SINGULARITY_RTOL * max|entry| in float).
        """
        d = self._dim
        scale = float(self.max_abs()) if self._mode == "float" else 0.0
        aug = [list(r) + [Fraction(int(i == j)) if self._mode == "exact" else float(i == j)
                          for j in range(d)] for i, r in enumerate(self._rows)]
        for c in range(d):
            p = max(range(c, d), key=lambda r: abs(aug[r][c]))
            if self._pivot_is_zero(aug[p][c], scale):
                raise SingularMatrixError(f"singular at column {c}")
            aug[c], aug[p] = aug[p], aug[c]
            piv = aug[c][c]
            nz = self._pivot_nonzeros(aug[c])
            if nz is None:
                aug[c] = [v / piv for v in aug[c]]
            else:
                nz = [(j, v / piv) for j, v in nz]
                for j, v in nz:
                    aug[c][j] = v
            for r in range(d):
                if r != c and aug[r][c] != 0:
                    f = aug[r][c]
                    aug[r] = _minus_multiple(aug[r], f, aug[c], nz)
        return SquareMatrix._trusted(tuple(tuple(r[d:]) for r in aug), self._mode)

    def det(self) -> Scalar:
        """Determinant via elimination with row swaps; exact in rational mode."""
        d = self._dim
        m = [list(r) for r in self._rows]
        scale = float(self.max_abs()) if self._mode == "float" else 0.0
        sign = 1
        out = Fraction(1) if self._mode == "exact" else 1.0
        for c in range(d):
            p = max(range(c, d), key=lambda r: abs(m[r][c]))
            if self._pivot_is_zero(m[p][c], scale):
                return Fraction(0) if self._mode == "exact" else 0.0
            if p != c:
                m[c], m[p] = m[p], m[c]
                sign = -sign
            out *= m[c][c]
            nz = self._pivot_nonzeros(m[c])
            for r in range(c + 1, d):
                if m[r][c] != 0:
                    f = m[r][c] / m[c][c]
                    m[r] = _minus_multiple(m[r], f, m[c], nz)
        return sign * out

    def lu_unit_lower(self) -> tuple["SquareMatrix", "SquareMatrix"]:
        """Doolittle factorization self = lower @ upper, without pivoting.

        lower is unit lower triangular, upper is upper triangular; the
        factorization is unique when it exists.  Raises
        DegeneratePointError when a leading principal minor vanishes.
        """
        d = self._dim
        scale = float(self.max_abs()) if self._mode == "float" else 0.0
        one = Fraction(1) if self._mode == "exact" else 1.0
        zero = Fraction(0) if self._mode == "exact" else 0.0
        low = [[one if i == j else zero for j in range(d)] for i in range(d)]
        up = [list(r) for r in self._rows]
        for c in range(d):
            if self._pivot_is_zero(up[c][c], scale):
                raise DegeneratePointError(f"vanishing leading minor at index {c}")
            nz = self._pivot_nonzeros(up[c])
            for r in range(c + 1, d):
                if up[r][c] != 0:
                    f = up[r][c] / up[c][c]
                    low[r][c] = f
                    up[r] = _minus_multiple(up[r], f, up[c], nz)
                    up[r][c] = zero
        return (SquareMatrix._trusted(tuple(map(tuple, low)), self._mode),
                SquareMatrix._trusted(tuple(map(tuple, up)), self._mode))

    def char_poly(self) -> "PolyInLambda":
        """Coefficients of det(lambda*E - self), highest degree first."""
        # Float keeps Faddeev-LeVerrier bit for bit, since simulate and
        # conserved print its roundoff, until a float Hessenberg replaces it.
        if self._mode == "exact":
            return PolyInLambda(_hessenberg_char_poly([list(r) for r in self._rows]))
        return PolyInLambda(_faddeev_leverrier(self._rows))

    # -- serialization -------------------------------------------------------

    def to_json_obj(self):
        return [[format_scalar(v) for v in r] for r in self._rows]

    @classmethod
    def from_json_obj(cls, obj) -> "SquareMatrix":
        return cls([[parse_scalar(v) for v in r] for r in obj])


def _nonzero_entries(row) -> list:
    """The (index, entry) pairs of the nonzero entries of a row."""
    return [(j, v) for j, v in enumerate(row) if v]


def _minus_multiple(row, f, pivot, nz):
    """row - f * pivot.  ``nz`` lists the pivot's nonzero entries, and only
    those are updated, in place; ``None`` means the dense float update."""
    if nz is None:
        return [v - f * w for v, w in zip(row, pivot)]
    for j, w in nz:
        row[j] -= f * w
    return row


def _hessenberg_char_poly(h: list) -> tuple:
    """det(lambda*E - H) of a Fraction matrix given as a list of row lists,
    coefficients highest degree first (Cohen, Alg. 2.2.9).

    ``h`` is reduced in place to upper Hessenberg form by similarity
    transforms whose pivot is the first exactly nonzero entry on or below
    the subdiagonal; a column without one is already reduced.  The leading
    principal minors p_0..p_d of lambda*E - H then follow the recurrence
    p_{m+1} = (lambda - h_mm) p_m - sum_{i<m} h_im (h_{i+1,i}..h_{m,m-1}) p_i,
    whose sum stops at the first zero subdiagonal entry.
    """
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
        # R_i -= u_i R_m for every i > m, then C_m += u_i C_i for every i:
        # the row operations commute, and the column operations multiply by
        # the inverse of their product on the right.
        us = []
        for i in range(m + 1, d):
            if h[i][c]:
                u = h[i][c] / t
                _minus_multiple(h[i], u, h[m], pivot_nz)
                us.append((i, u))
        for row in h:
            for i, u in us:
                if row[i]:
                    row[m] += u * row[i]
    # polys[k] holds p_k lowest degree first
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


def _faddeev_leverrier(a: Sequence[Sequence[float]]) -> tuple:
    """det(lambda*E - A) of a float matrix given as rows, coefficients
    highest degree first, by the Faddeev-LeVerrier recurrence

        M_0 = 0,  M_k = A M_{k-1} + c_{k-1} E,  c_k = -tr(A M_k) / k.

    The float operations and their order are those of the same recurrence
    on SquareMatrix values: ``sum`` over each row-column product, from int
    0, then ``+ 1.0*c`` on the diagonal and ``+ 0.0*c`` off it (a NaN when
    c is not finite).  Of A M_k only the diagonal is formed.
    """
    d = len(a)
    coeffs = [1.0]
    m = [[0.0] * d for _ in range(d)]
    for k in range(1, d + 1):
        c = coeffs[-1]
        on, off = 1.0 * c, 0.0 * c
        cols = list(zip(*m))
        m = [[sum(map(mul, row, col)) + (on if i == j else off)
              for j, col in enumerate(cols)] for i, row in enumerate(a)]
        trace = sum(sum(map(mul, row, col)) for row, col in zip(a, zip(*m)))
        coeffs.append(-trace / k)
    return tuple(coeffs)


@dataclass(frozen=True)
class PolyInLambda:
    """Polynomial sum_i coeffs[i] * lambda^(d-i), where d = len(coeffs)-1."""

    coeffs: tuple

    def __call__(self, lam):
        acc = 0
        for c in self.coeffs:
            acc = acc * lam + c
        return acc

    def is_palindromic(self) -> bool:
        return self.coeffs == tuple(reversed(self.coeffs))


def mat_exp(m: SquareMatrix, t: float = 1.0) -> SquareMatrix:
    """exp(t*m) for float-mode matrices, by scaling-and-squaring (scipy)."""
    if m.mode != "float":
        raise ModeError("mat_exp requires a float-mode matrix")
    import numpy as np
    from scipy.linalg import expm

    arr = expm(float(t) * np.array(m.rows, dtype=float))
    return SquareMatrix([[float(v) for v in row] for row in arr], "float")


def interpolate_poly(points: Sequence[tuple]) -> PolyInLambda:
    """Exact polynomial through d+1 (lambda, value) points, highest-degree first.

    Used to read off coefficients of determinant polynomials that are not
    plain characteristic polynomials; exact over rationals.
    """
    d = len(points) - 1
    vand = SquareMatrix(
        [[Fraction(lam) ** (d - j) for j in range(d + 1)] for lam, _ in points])
    rhs = [Fraction(v) for _, v in points]
    inv = vand.inverse()
    coeffs = tuple(sum(inv[i, k] * rhs[k] for k in range(d + 1)) for i in range(d + 1))
    return PolyInLambda(coeffs)
