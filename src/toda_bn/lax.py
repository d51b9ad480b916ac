"""Lax matrix of the rank-n relativistic Toda chain of type B.

The 2n x 2n Lax matrix is L = N B C^{-1}, built from the phase-space
coordinates (z_1..z_n, Q_1..Q_n):

* N  is block diagonal with an upper-bidiagonal block N11 (diagonal z_i,
  superdiagonal 1) and a unit upper-bidiagonal block N22 (superdiagonal
  Q_{n-1}z_{n-1}, ..., Q_1 z_1);
* B  = [[1, J], [0, 1]] with J the n x n reversal;
* C  = [[J N22 J, 0], [P, J N11 J]] with P = Q_n z_n E_{1,n}.

One builder, ``_lax_rows``, writes L in closed form with ring operations
only, so the same code gives L over Fraction and float (``build_lax``) and
over LaurentPoly (``lax_symbolic``); C is never inverted numerically.
``_lax_inverse_rows`` writes L^{-1} = C B^{-1} N^{-1} the same way, from
the same bidiagonal inverses.

The phase space is cut out by two varieties: Gamma_1 constrains the
sparsity of L^{-1}, Gamma_2 ties the four n x n blocks of L and L^{-1}
together through the reversal J.  Generic members of the intersection
are parametrized by (z, Q); ``parameters_from_lax`` inverts the chart.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isfinite
from typing import Sequence

from .errors import NotInGammaError, ZeroBaseError
from .laurent import LaurentPoly
from .linalg import (_UNITS, SquareMatrix, _check_finite, coerce_scalar, format_scalar,
                     parse_scalar, scalars_mode)

#: Relative tolerance for the consistency reads of parameter recovery in
#: float mode (exact mode uses exact equality).
RECOVERY_RTOL = 1e-8


@dataclass(frozen=True)
class PhasePoint:
    """A point (z_1..z_n, Q_1..Q_n) of the 2n-dimensional phase space."""

    n: int
    z: tuple
    Q: tuple

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("rank n must be >= 1")
        if len(self.z) != self.n or len(self.Q) != self.n:
            raise ValueError("z and Q must both have length n")
        mode = scalars_mode((*self.z, *self.Q))
        object.__setattr__(self, "z", tuple(coerce_scalar(v, mode) for v in self.z))
        object.__setattr__(self, "Q", tuple(coerce_scalar(v, mode) for v in self.Q))
        if any(v == 0 for v in self.z):
            raise ZeroBaseError("all z_i must be nonzero")

    @classmethod
    def _trusted(cls, n: int, z: tuple, Q: tuple) -> "PhasePoint":
        """A point that takes z and Q as they are, unchecked.

        The caller guarantees what ``__post_init__`` would establish: z and
        Q are tuples of length n >= 1, all exactly Fraction or all exactly
        float, and no z_i is zero.
        """
        self = object.__new__(cls)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "Q", Q)
        return self

    @property
    def mode(self) -> str:
        return "float" if isinstance(self.z[0], float) else "exact"

    def to_float(self) -> "PhasePoint":
        return PhasePoint(self.n, tuple(map(float, self.z)), tuple(map(float, self.Q)))

    def to_json_obj(self):
        return {"n": self.n,
                "z": [format_scalar(v) for v in self.z],
                "Q": [format_scalar(v) for v in self.Q]}

    @classmethod
    def from_json_obj(cls, obj) -> "PhasePoint":
        return cls(int(obj["n"]),
                   tuple(parse_scalar(v) for v in obj["z"]),
                   tuple(parse_scalar(v) for v in obj["Q"]))


@dataclass(frozen=True)
class GammaReport:
    """Membership report for the two defining varieties of the phase space."""

    in_gamma1: bool
    in_gamma2: bool
    first_violation: tuple | None = None

    @property
    def in_gamma(self) -> bool:
        return self.in_gamma1 and self.in_gamma2


def _qz(x: PhasePoint) -> list:
    """Q_k z_k at index k - 1; at a float point, one that is not finite
    raises ValueError naming it."""
    qz = [q * w for q, w in zip(x.Q, x.z)]
    if x.mode == "float" and not all(map(isfinite, qz)):
        k = next(k for k, v in enumerate(qz, 1) if not isfinite(v))
        raise ValueError(f"Q_{k} z_{k} overflows: {x.Q[k - 1]!r} * {x.z[k - 1]!r}")
    return qz


def build_factors(x: PhasePoint) -> tuple[SquareMatrix, SquareMatrix, SquareMatrix]:
    """The three factors (N, B, C) of the Lax matrix at x.

    At a float point, a product Q_k z_k that is not finite raises
    ValueError naming it.
    """
    n, z, mode = x.n, x.z, x.mode
    one, zero = _UNITS[mode]
    qz = _qz(x)

    n11 = [[zero] * n for _ in range(n)]
    n22 = [[zero] * n for _ in range(n)]
    for i in range(n):
        n11[i][i] = z[i]
        n22[i][i] = one
        if i + 1 < n:
            n11[i][i + 1] = one
            n22[i][i + 1] = qz[n - 2 - i]
    N11 = SquareMatrix(n11, mode)
    N22 = SquareMatrix(n22, mode)
    J = SquareMatrix.reversal(n, mode)
    Z0 = SquareMatrix.zero(n, mode)
    P = Z0.with_entry(0, n - 1, qz[n - 1])

    N = SquareMatrix.from_blocks([[N11, Z0], [Z0, N22]])
    B = SquareMatrix.from_blocks([[SquareMatrix.identity(n, mode), J],
                                  [Z0, SquareMatrix.identity(n, mode)]])
    C = SquareMatrix.from_blocks([[N22.flip(), Z0], [P, N11.flip()]])
    return N, B, C


def _bidiagonal_inverse(n: int, first, factor, zero) -> list[list]:
    """The rows of U^{-1} for an n x n upper-bidiagonal U, by ring operations.

    U^{-1} has first[i] (-factor[i+1]) ... (-factor[j]) at (i, j), j >= i:
    a signed running product along each row, where first[i] = 1/U[i, i]
    and factor[j] = U[j-1, j] / U[j, j].  No entry is divided by.
    """
    rows = []
    for i in range(n):
        row = [zero] * n
        v = row[i] = first[i]
        for j in range(i + 1, n):
            v = row[j] = -v * factor[j]
        rows.append(row)
    return rows


def _flip(rows: list[list]) -> list[list]:
    """J A J: the rows of A reversed in both directions."""
    return [row[::-1] for row in rows[::-1]]


def _lax_rows(n: int, z, zinv, qz, one, zero) -> list[list]:
    """The 2n rows of L = N B C^{-1} by ring operations only.

    ``z``, ``zinv`` and ``qz`` hold z_k, 1/z_k and Q_k z_k at index k - 1
    in any ring whose units are ``one`` and ``zero``.  C11^{-1} and
    C22^{-1} are the index flips of N22^{-1} and N11^{-1}: signed running
    products of Q z, and of 1/z, along each row.  C21^{-1} is
    -C22^{-1} P C11^{-1}, and N11 J C22^{-1} = J, so

        L = [[(N11 - J P) C11^{-1}, J], [-L22 P C11^{-1}, L22]],  L22 = N22 C22^{-1},

    where J P is Q_n z_n in the last diagonal place.  A row of the upper
    left block or of L22 combines two rows of a triangular inverse, and
    the lower left block is one outer product, as P has one entry.
    """
    c11_inv = _flip(_bidiagonal_inverse(n, [one] * n, qz[::-1], zero))
    c22_inv = _flip(_bidiagonal_inverse(n, zinv, zinv, zero))
    diag = [*z[:-1], z[-1] - qz[-1]]  # the diagonal of N11 - J P
    outer = [-qz[-1] * v for v in c11_inv[-1]]
    top, bottom = [], []
    for i in range(n):
        left = [diag[i] * v for v in c11_inv[i]]
        right = c22_inv[i]
        if i + 1 < n:
            left = [a + b for a, b in zip(left, c11_inv[i + 1])]
            s = qz[n - 2 - i]
            right = [a + s * b for a, b in zip(right, c22_inv[i + 1])]
        top.append(left + [one if j == n - 1 - i else zero for j in range(n)])
        bottom.append([right[0] * v for v in outer] + right)
    return top + bottom


def _lax_inverse_rows(n: int, z, zinv, qz, one, zero) -> list[list]:
    """The 2n rows of L^{-1} = C B^{-1} N^{-1}, by ring operations only.

    The arguments are those of ``_lax_rows``.  With 0-based indices,

        L^{-1} = [[(J N22 J) N11^{-1}, -J], [Q_n E_{0,n-1}, (J N11 J - Q_n z_n E_00) N22^{-1}]],

    where J N22 J is unit lower bidiagonal with Q_i z_i at (i, i - 1) and
    J N11 J is lower bidiagonal with z_{n-i} at (i, i) and 1 below it.  A
    row of either diagonal block combines two rows of a triangular
    inverse, so L^{-1} is upper Hessenberg, as Gamma_1 requires.
    """
    n11_inv = _bidiagonal_inverse(n, zinv, zinv, zero)
    n22_inv = _bidiagonal_inverse(n, [one] * n, qz[::-1], zero)
    diag = [z[-1] - qz[-1], *z[-2::-1]]  # the diagonal of J N11 J - Q_n z_n E_00
    top, bottom = [], []
    for i in range(n):
        left = n11_inv[i]
        right = [diag[i] * v for v in n22_inv[i]]
        if i:
            s = qz[i - 1]
            left = [a + s * b for a, b in zip(left, n11_inv[i - 1])]
            right = [a + b for a, b in zip(right, n22_inv[i - 1])]
        top.append(left + [-one if j == n - 1 - i else zero for j in range(n)])
        bottom.append([zero] * n + right)
    bottom[0][n - 1] = qz[-1] * zinv[-1]  # Q_n
    return top + bottom


def build_lax(x: PhasePoint) -> SquareMatrix:
    """L = N B C^{-1} by ``_lax_rows``; exact at a rational point.

    At a float point, an overflowing Q_k z_k or a non-finite entry (far
    outside the |z| window, products of 1/z_i overflow) raises ValueError.

    An exact point's matrix is memoized, keyed by the point, in a memo of
    the last 8 points: a Backlund step builds L of one point up to twice,
    as the rebuild check of ``parameters_from_lax`` on the conjugation
    route and again when the next step conjugates it (exact
    ``conserved_values`` builds L^{-1}, not L).  The memo is exact only,
    because -0.0 == 0.0 with equal hashes, so a float memo could return
    zeros of the other sign; and it is bounded, because orbit entries grow
    by about 80 bits a step.  The matrix is immutable, so a hit is the
    value a fresh build returns.
    """
    if x.mode == "exact":
        return _build_lax_exact(x)
    return _lax_product(x)


def _lax_product(x: PhasePoint) -> SquareMatrix:
    rows = _lax_rows(x.n, x.z, [1 / w for w in x.z], _qz(x), *_UNITS[x.mode])
    if x.mode == "float":
        _check_finite(rows)
    return SquareMatrix._trusted(tuple(map(tuple, rows)), x.mode)


_build_lax_exact = lru_cache(maxsize=8)(_lax_product)


@lru_cache(maxsize=None)
def lax_symbolic(n: int) -> tuple[tuple[LaurentPoly, ...], ...]:
    """The 2n x 2n Lax matrix with entries as exact Laurent polynomials.

    ``build_lax``'s builder, ``_lax_rows``, over the variables: C^{-1}
    has signed Laurent monomial entries, so no division is needed.
    """
    z = [LaurentPoly.z_var(n, i) for i in range(1, n + 1)]
    zinv = [LaurentPoly.z_var(n, i, -1) for i in range(1, n + 1)]
    qz = [LaurentPoly.q_var(n, i) * w for i, w in enumerate(z, 1)]
    rows = _lax_rows(n, z, zinv, qz, LaurentPoly.one(n), LaurentPoly.zero(n))
    return tuple(map(tuple, rows))


def evaluate_matrix(entries: Sequence[Sequence[LaurentPoly]], x: PhasePoint) -> SquareMatrix:
    """Evaluate a matrix of Laurent polynomials at a phase point."""
    return SquareMatrix([[p.evaluate(x.z, x.Q) for p in row] for row in entries], x.mode)


def _is_zero(v, mode, scale) -> bool:
    if mode == "exact":
        return v == 0
    return abs(v) <= RECOVERY_RTOL * max(scale, 1.0)


def gamma_membership(L: SquareMatrix) -> GammaReport:
    """Test membership of L in the two defining varieties.

    Gamma_1 requires L^{-1} to be upper Hessenberg with its subdiagonal 1
    in the last n - 1 rows: with 0-based indices, L^{-1}[i, j] = 0 for
    j < i - 1, and L^{-1}[i, i - 1] = 1 for i > n.

    Gamma_2 requires L = [[U, J], [*, W]] with
    L^{-1} = [[J W J, -J], [*, J U J]].

    ``first_violation`` is the first failed entry, Gamma_1's in row-major
    order before Gamma_2's block by block.
    """
    d = L.dim
    if d % 2:
        raise ValueError("Gamma membership needs even dimension")
    n = d // 2
    A = L.inverse()
    mode = L.mode
    scale = max(L.max_abs(), A.max_abs()) if mode == "float" else 0.0

    def is_zero(v):
        return _is_zero(v, mode, scale)

    g1 = [("gamma1", i, j) for i, row in enumerate(A.rows) for j in range(i)
          if not (is_zero(row[j]) if j < i - 1 else i <= n or is_zero(row[j] - 1))]
    J = SquareMatrix.reversal(n, mode)
    blocks = [
        ("gamma2:upper-right-of-L", L.block(0, n, n), J),
        ("gamma2:upper-right-of-inverse", A.block(0, n, n), -J),
        ("gamma2:upper-left-of-inverse", A.block(0, 0, n), L.block(n, n, n).flip()),
        ("gamma2:lower-right-of-inverse", A.block(n, n, n), L.block(0, 0, n).flip()),
    ]
    g2 = [(name, i, j) for name, got, expect in blocks
          for i, row in enumerate((got - expect).rows) for j, v in enumerate(row)
          if not is_zero(v)]
    return GammaReport(not g1, not g2, (g1 + g2)[0] if g1 or g2 else None)


def parameters_from_lax(L: SquareMatrix) -> PhasePoint:
    """Recover (z, Q) from a Lax matrix by reading them off its entries.

    The last row of L ends in (-1)^k / (z_1 .. z_{k+1}) at column 2n-1-k,
    and the upper left block's diagonal holds z_i (1 - Q_i), so

        z_1 = 1 / L[2n-1, 2n-1],   z_{k+1} = -L[2n-1, 2n-k] / L[2n-1, 2n-1-k],
        Q_i = 1 - L[i-1, i-1] / z_i.

    No inverse is taken.  A zero among the last-row entries read raises
    NotInGammaError, and so does a rebuild of L from (z, Q) that differs
    from L at some entry (exactly, or beyond RECOVERY_RTOL in float mode):
    the matrix is outside the coordinate chart.
    """
    d = L.dim
    if d % 2:
        raise ValueError("parameter recovery needs even dimension")
    n = d // 2
    mode = L.mode
    reads = L.rows[-1][:n - 1:-1]  # L[2n-1, 2n-1-k] for k = 0..n-1
    if 0 in reads:
        raise NotInGammaError(f"zero entry at ({d - 1}, {d - 1 - reads.index(0)})")
    z = (1 / reads[0], *(-reads[k - 1] / reads[k] for k in range(1, n)))
    Q = tuple(1 - L[i, i] / z[i] for i in range(n))

    def close(a, b):
        if mode == "exact":
            return a == b
        return abs(a - b) <= RECOVERY_RTOL * max(abs(a), abs(b), 1.0)

    x = PhasePoint(n, z, Q)
    rebuilt = build_lax(x)
    for i in range(d):
        for j in range(d):
            if not close(rebuilt[i, j], L[i, j]):
                raise NotInGammaError(f"rebuilt Lax matrix differs at ({i}, {j})")
    return x
