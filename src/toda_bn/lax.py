"""Lax matrix of the rank-n relativistic Toda chain of type B.

The 2n x 2n Lax matrix is L = N B C^{-1}, built from the phase-space
coordinates (z_1..z_n, Q_1..Q_n):

* N  is block diagonal with an upper-bidiagonal block N11 (diagonal z_i,
  superdiagonal 1) and a unit upper-bidiagonal block N22 (superdiagonal
  Q_{n-1}z_{n-1}, ..., Q_1 z_1);
* B  = [[1, J], [0, 1]] with J the n x n reversal;
* C  = [[J N22 J, 0], [P, J N11 J]] with P = Q_n z_n E_{1,n}.

The phase space is cut out by two varieties: Gamma_1 constrains the
sparsity of L^{-1}, Gamma_2 ties the four n x n blocks of L and L^{-1}
together through the reversal J.  Generic members of the intersection
are parametrized by (z, Q); ``parameters_from_lax`` inverts the chart.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import isfinite
from typing import Sequence

from .errors import NotInGammaError, ZeroBaseError
from .laurent import LaurentPoly, poly_matrix_product
from .linalg import SquareMatrix, coerce_scalar, format_scalar, parse_scalar, scalars_mode

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


def build_factors(x: PhasePoint) -> tuple[SquareMatrix, SquareMatrix, SquareMatrix]:
    """The three factors (N, B, C) of the Lax matrix at x.

    At a float point, a product Q_k z_k that is not finite raises
    ValueError naming it.
    """
    n, z, Q = x.n, x.z, x.Q
    mode = x.mode
    one = Fraction(1) if mode == "exact" else 1.0
    zero = Fraction(0) if mode == "exact" else 0.0
    qz = [q * w for q, w in zip(Q, z)]  # Q_k z_k at index k - 1
    if mode == "float" and not all(map(isfinite, qz)):
        k = next(k for k, v in enumerate(qz, 1) if not isfinite(v))
        raise ValueError(f"Q_{k} z_{k} overflows: {Q[k - 1]!r} * {z[k - 1]!r}")

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


def build_lax(x: PhasePoint) -> SquareMatrix:
    """L = N B C^{-1}; entries are exact in rational mode.

    An exact point's matrix is memoized, keyed by the point, in a memo of
    the last 8 points: a Backlund step builds L of one point up to four
    times.  The memo is exact only, because -0.0 == 0.0 with equal
    hashes, so a float memo could return zeros of the other sign; and it
    is bounded, because orbit entries grow by about 80 bits a step.  The
    matrix is immutable, so a hit is the value a fresh build returns.
    """
    if x.mode == "exact":
        return _build_lax_exact(x)
    return _lax_product(x)


def _lax_product(x: PhasePoint) -> SquareMatrix:
    N, B, C = build_factors(x)
    return N @ B @ C.inverse()


_build_lax_exact = lru_cache(maxsize=8)(_lax_product)


@lru_cache(maxsize=None)
def lax_symbolic(n: int) -> tuple[tuple[LaurentPoly, ...], ...]:
    """The 2n x 2n Lax matrix with entries as exact Laurent polynomials.

    C is block lower triangular with bidiagonal blocks, so C^{-1} has a
    closed form whose entries are Laurent monomials; no symbolic division
    is needed.
    """
    d = 2 * n
    zero = LaurentPoly.zero(n)
    one = LaurentPoly.one(n)

    def zvar(i, p=1):  # 1-based
        return LaurentPoly.z_var(n, i, p)

    def qvar(i):
        return LaurentPoly.q_var(n, i)

    n11 = [[zero] * n for _ in range(n)]
    n22 = [[zero] * n for _ in range(n)]
    n11_inv = [[zero] * n for _ in range(n)]
    n22_inv = [[zero] * n for _ in range(n)]
    for i in range(1, n + 1):
        n11[i - 1][i - 1] = zvar(i)
        n22[i - 1][i - 1] = one
        if i < n:
            n11[i - 1][i] = one
            n22[i - 1][i] = qvar(n - i) * zvar(n - i)
        for j in range(i, n + 1):
            mono_z = one
            for m in range(i, j + 1):
                mono_z = mono_z * zvar(m, -1)
            n11_inv[i - 1][j - 1] = (-1) ** (j - i) * mono_z
            mono_q = one
            for m in range(i, j):
                mono_q = mono_q * qvar(n - m) * zvar(n - m)
            n22_inv[i - 1][j - 1] = (-1) ** (j - i) * mono_q

    def rev(m):
        return [[m[n - 1 - i][n - 1 - j] for j in range(n)] for i in range(n)]

    # C = [[J N22 J, 0], [P, J N11 J]]  =>  block triangular inverse
    c11_inv = rev(n22_inv)
    c22_inv = rev(n11_inv)
    p_blk = [[zero] * n for _ in range(n)]
    p_blk[0][n - 1] = qvar(n) * zvar(n)
    c21_inv = [[-v for v in row] for row in
               poly_matrix_product(poly_matrix_product(c22_inv, p_blk), c11_inv)]

    c_inv = [[zero] * d for _ in range(d)]
    nb = [[zero] * d for _ in range(d)]
    for i in range(n):
        for j in range(n):
            c_inv[i][j] = c11_inv[i][j]
            c_inv[n + i][j] = c21_inv[i][j]
            c_inv[n + i][n + j] = c22_inv[i][j]
            # N @ B = [[N11, N11 J], [0, N22]]
            nb[i][j] = n11[i][j]
            nb[i][n + j] = n11[i][n - 1 - j]
            nb[n + i][n + j] = n22[i][j]
    lax = poly_matrix_product(nb, c_inv)
    return tuple(tuple(row) for row in lax)


def evaluate_matrix(entries: Sequence[Sequence[LaurentPoly]], x: PhasePoint) -> SquareMatrix:
    """Evaluate a matrix of Laurent polynomials at a phase point."""
    return SquareMatrix([[p.evaluate(x.z, x.Q) for p in row] for row in entries], x.mode)


def _is_zero(v, mode, scale) -> bool:
    if mode == "exact":
        return v == 0
    return abs(v) <= RECOVERY_RTOL * max(scale, 1.0)


def _is_one(v, mode, scale) -> bool:
    return _is_zero(v - 1, mode, scale)


def gamma_membership(L: SquareMatrix) -> GammaReport:
    """Test membership of L in the two defining varieties.

    Gamma_1 constrains L^{-1}: the upper-left block is lower Hessenberg,
    row n+1 of the left half vanishes except in column n, the remaining
    bottom rows vanish in the left half, and in the right half they are
    zero below the full matrix's subdiagonal, which itself is 1.

    Gamma_2 requires L = [[U, J], [*, W]] with
    L^{-1} = [[J W J, -J], [*, J U J]].
    """
    d = L.dim
    if d % 2:
        raise ValueError("Gamma membership needs even dimension")
    n = d // 2
    A = L.inverse()
    mode = L.mode
    scale = max(L.max_abs(), A.max_abs()) if mode == "float" else 0.0

    violation = None

    def viol(which, i, j):
        nonlocal violation
        if violation is None:
            violation = (which, i, j)

    in_g1 = True
    for i in range(d):
        for j in range(d):
            v = A[i, j]
            ok = True
            if i < n and j < n:
                ok = (i <= j + 1) or _is_zero(v, mode, scale)
            elif i == n and j < n - 1:
                ok = _is_zero(v, mode, scale)
            elif i > n and j < n:
                ok = _is_zero(v, mode, scale)
            elif i > n and n <= j < i - 1:
                ok = _is_zero(v, mode, scale)
            elif i > n and j == i - 1:
                ok = _is_one(v, mode, scale)
            if not ok:
                in_g1 = False
                viol("gamma1", i, j)

    J = SquareMatrix.reversal(n, mode)
    in_g2 = True
    blocks = [
        ("gamma2:upper-right-of-L", L.block(0, n, n), J),
        ("gamma2:upper-right-of-inverse", A.block(0, n, n), -J),
        ("gamma2:upper-left-of-inverse", A.block(0, 0, n), L.block(n, n, n).flip()),
        ("gamma2:lower-right-of-inverse", A.block(n, n, n), L.block(0, 0, n).flip()),
    ]
    for name, got, expect in blocks:
        diff = got - expect
        for i in range(n):
            for j in range(n):
                if not _is_zero(diff[i, j], mode, scale):
                    in_g2 = False
                    viol(name, i, j)
    return GammaReport(in_g1, in_g2, violation)


def parameters_from_lax(L: SquareMatrix) -> PhasePoint:
    """Recover (z, Q) from a generic Lax matrix.

    Reads the coordinates off the unpivoted LU factorization of L^{-1}:
    z_i = 1/upper[i,i] and Q_i = lower[i+1,i]*upper[i,i] for i = 1..n.
    The bottom half of the factors repeats the z_i; those redundant reads
    and a final rebuild of L are checked, and a mismatch raises
    NotInGammaError (the matrix is outside the coordinate chart).
    """
    d = L.dim
    if d % 2:
        raise ValueError("parameter recovery needs even dimension")
    n = d // 2
    mode = L.mode
    lower, upper = L.inverse().lu_unit_lower()
    scale = max(L.max_abs(), 1.0) if mode == "float" else 0.0

    z = tuple(1 / upper[i, i] for i in range(n))
    Q = tuple(lower[i + 1, i] * upper[i, i] for i in range(n))

    def close(a, b):
        if mode == "exact":
            return a == b
        return abs(a - b) <= RECOVERY_RTOL * max(abs(a), abs(b), 1.0)

    for i in range(n):  # upper[n+i, n+i] repeats z in reverse order
        if not close(upper[n + i, n + i], z[n - 1 - i]):
            raise NotInGammaError(f"inconsistent diagonal read at {n + i}")
    for k in range(n - 1):  # subdiagonal of the bottom half repeats 1/z
        if not close(lower[n + k + 1, n + k], 1 / z[n - 1 - k]):
            raise NotInGammaError(f"inconsistent subdiagonal read at {n + k + 1}")

    x = PhasePoint(n, z, Q)
    rebuilt = build_lax(x)
    for i in range(d):
        for j in range(d):
            if not close(rebuilt[i, j], L[i, j]):
                raise NotInGammaError(f"rebuilt Lax matrix differs at ({i}, {j})")
    return x
