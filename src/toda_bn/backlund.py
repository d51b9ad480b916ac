"""Discrete-time evolution: the Backlund transformation.

The factor C of the Lax matrix decomposes as C = K R^{-1} with K in
G_minus and R in G_plus, both given by closed-form entries in the
auxiliaries

    a_i = Q_i z_i,   b_i = z_i,
    M_i = 1 - a_i / b_{i+1},
    N_i = 1 - a_i a_{i+1} / (b_{i+1} b_{i+2}).

Swapping the factors of L = (N B R) K^{-1} and multiplying back defines
L+ = K^{-1} (N B R) = K^{-1} L K, a new Lax matrix whose coordinates are
given by the closed-form birational map

    Q_i+ = (M_{i-1} M_{i+1} / M_i^2) (z_i / z_{i+1})^2 Q_i,
    z_i+ = ((1 - Q_{i-1}+) / (1 - Q_i+)) (M_{i-1} / M_i) z_i,

with the boundary conventions Q_0+ = 0 and M_0 = M_n = M_{n+1} =
z_{n+1} = 1.  Both routes are implemented; they agree exactly wherever
both are defined, and they preserve every conserved quantity (L+ is a
conjugate of L).

The conjugation route takes no dense inverse: kr_factors checks the
factorization as C R = K, and backlund_conjugate solves K L+ = L K for
L+.  K is tridiagonal (its only entry outside the two diagonal blocks,
M_{n-1} a_n b_n, sits on the subdiagonal) with det K = (z_1 .. z_n)^2, so
wherever kr_factors succeeds the solve is one elimination over K's band,
and parameters_from_lax reads x+ off L+.

The closed-form K/R display is ambiguous at n = 1 (the single diagonal
entry is both "first row" and "last row" of the pattern), so kr_factors
rejects n = 1; the closed-form map backlund_map handles n = 1 fine.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DegeneratePointError, SingularMatrixError
from .lax import PhasePoint, build_factors, build_lax, parameters_from_lax
from .linalg import _UNITS, SquareMatrix
from .dynamics import rk4_endpoint

#: Relative tolerance, against max(1, max|K|), of the float-mode C R = K
#: self-check.
KR_CHECK_RTOL = 1e-9


@dataclass(frozen=True)
class KRFactors:
    """Closed-form factors of C = K @ R^{-1} with their auxiliaries.

    M holds (M_0, M_1, .., M_{n+1}) with the boundary values pinned to 1;
    N holds (N_1, .., N_{n-2}), the diagonal auxiliaries (empty for n = 2).
    """

    K: SquareMatrix
    R: SquareMatrix
    a: tuple
    b: tuple
    M: tuple
    N: tuple


def _aux(x: PhasePoint):
    n, z, Q = x.n, x.z, x.Q
    one = _UNITS[x.mode][0]
    a = tuple(Q[i] * z[i] for i in range(n))
    b = tuple(z)
    M = [one] * (n + 2)
    for i in range(1, n):
        M[i] = 1 - a[i - 1] / b[i]
    return a, b, tuple(M)


def kr_factors(x: PhasePoint) -> KRFactors:
    """Build K in G_minus and R in G_plus with C = K @ R^{-1}, entrywise.

    Requires n >= 2 and M_i != 0 for 1 <= i <= n-1.  Every call re-checks
    the factorization as the product C R = K, which needs no inverse:
    exactly at a rational point, and within KR_CHECK_RTOL at a float point.
    """
    n = x.n
    if n < 2:
        raise DegeneratePointError(
            "closed-form K/R factors are defined for n >= 2 only")
    a, b, M = _aux(x)
    mode = x.mode
    one, zero = _UNITS[mode]
    if any(M[i] == 0 for i in range(1, n)):
        raise DegeneratePointError("some M_i vanishes; K/R factors undefined")
    N = tuple(1 - a[i - 1] * a[i] / (b[i] * b[i + 1]) for i in range(1, n - 1))

    k11 = [[zero] * n for _ in range(n)]
    for i in range(1, n + 1):
        if i == 1:
            k11[0][0] = b[0] / M[1]
        elif i < n:
            k11[i - 1][i - 1] = N[i - 2] * b[i - 1] / M[i]
        else:
            k11[n - 1][n - 1] = b[n - 1]
        if i < n:
            k11[i - 1][i] = one
        if i >= 2:
            k11[i - 1][i - 2] = M[i - 2] * a[i - 2] * b[i - 2] / M[i - 1]
    K11 = SquareMatrix(k11, mode)
    K12 = SquareMatrix.zero(n, mode).with_entry(0, n - 1, M[n - 1] * a[n - 1] * b[n - 1])
    K = SquareMatrix.from_blocks([[K11, SquareMatrix.zero(n, mode)],
                                  [K12, K11.flip()]])

    r11 = [[zero] * n for _ in range(n)]
    for i in range(1, n + 1):
        r11[i - 1][i - 1] = M[i - 1] * b[i - 1] / M[i]
        if i < n:
            r11[i - 1][i] = one
    r22 = [[one if i == j else zero for j in range(n)] for i in range(n)]
    for i in range(1, n):
        j = n - i  # superdiagonal entries appear in reversed order
        r22[i - 1][i] = M[j - 1] * a[j - 1] * b[j - 1] / (M[j] * b[j])
    R = SquareMatrix.from_blocks([[SquareMatrix(r11, mode), SquareMatrix.zero(n, mode)],
                                  [SquareMatrix.zero(n, mode), SquareMatrix(r22, mode)]])

    _, _, C = build_factors(x)
    rebuilt = C @ R
    if mode == "exact":
        if rebuilt != K:
            raise RuntimeError("internal error: C R does not rebuild K")
    else:
        scale = max(K.max_abs(), 1.0)
        if any(abs(rebuilt[i, j] - K[i, j]) > KR_CHECK_RTOL * scale
               for i in range(2 * n) for j in range(2 * n)):
            raise DegeneratePointError("C R = K check failed beyond float tolerance")
    return KRFactors(K, R, a, b, M, N)


def backlund_map(x: PhasePoint) -> PhasePoint:
    """The closed-form birational map x -> x+."""
    n = x.n
    _, _, M = _aux(x)
    one, zero = _UNITS[x.mode]
    if any(M[i] == 0 for i in range(1, n)):
        raise DegeneratePointError("some M_i vanishes; map undefined")
    zext = tuple(x.z) + (one,)  # z_{n+1} = 1
    Qp = []
    for i in range(1, n + 1):
        Qp.append((M[i - 1] * M[i + 1] / M[i] ** 2)
                  * (zext[i - 1] ** 2 / zext[i] ** 2) * x.Q[i - 1])
    zp = []
    prev_qp = zero  # Q_0+ = 0
    for i in range(1, n + 1):
        if 1 - Qp[i - 1] == 0:
            raise DegeneratePointError(f"1 - Q_{i}+ vanishes; map undefined")
        zp.append(((1 - prev_qp) / (1 - Qp[i - 1])) * (M[i - 1] / M[i]) * x.z[i - 1])
        prev_qp = Qp[i - 1]
    return PhasePoint(n, tuple(zp), tuple(Qp))


def _band_solve(A: SquareMatrix, B: SquareMatrix) -> SquareMatrix:
    """X with A X = B for a tridiagonal A; A's entries off its band are not read.

    Gaussian elimination over the band with a two-row interchange, as
    LAPACK's gtsv (Higham, *Accuracy and Stability of Numerical
    Algorithms*, 9.5): the pivot of column c is row c as reduced so far or
    row c+1, the first nonzero in exact mode and the larger |.| in float
    mode, and an interchange fills one entry of a second superdiagonal.
    Ring operations only, so exact mode is exact.  A zero pivot raises
    SingularMatrixError("singular at column c").
    """
    d, a, b, exact = A.dim, A.rows, B.rows, A.mode == "exact"
    zero = _UNITS[A.mode][1]

    def entry(r, c):
        return a[r][c] if c < d else zero

    top, rtop = [a[0][0], entry(0, 1), zero], b[0]
    U, Y = [], []  # row c of U holds its entries at columns c, c+1, c+2
    for c in range(d):
        if c + 1 < d:
            bot, rbot = [a[c + 1][c], a[c + 1][c + 1], entry(c + 1, c + 2)], b[c + 1]
            if (top[0] == 0) if exact else (abs(bot[0]) > abs(top[0])):
                top, bot, rtop, rbot = bot, top, rbot, rtop
        if top[0] == 0:
            raise SingularMatrixError(f"singular at column {c}")
        U.append(top)
        Y.append(rtop)
        if c + 1 < d:
            m = bot[0] / top[0]
            top = [bot[1] - m * top[1], bot[2] - m * top[2], zero]
            rtop = [v - m * w for v, w in zip(rbot, rtop)]
    X = [None] * d
    for c in reversed(range(d)):
        u, row = U[c], Y[c]
        for k in (1, 2):
            if c + k < d and u[k] != 0:
                row = [v - u[k] * w for v, w in zip(row, X[c + k])]
        X[c] = tuple(v / u[0] for v in row)
    return SquareMatrix._trusted(tuple(X), A.mode)


def backlund_conjugate(x: PhasePoint) -> PhasePoint:
    """x -> x+ through K L+ = L K, solved on K's band, and parameter recovery."""
    K = kr_factors(x).K
    return parameters_from_lax(_band_solve(K, build_lax(x) @ K))


def iterate(x: PhasePoint, steps: int) -> list[PhasePoint]:
    """Repeated closed-form map; returns [x, x+, x++, ...] (steps+1 points).

    Every conserved quantity is constant along the sequence; a degenerate
    intermediate point raises DegeneratePointError carrying the step index.
    """
    if steps < 0:
        raise ValueError("need steps >= 0")
    out = [x]
    for k in range(steps):
        try:
            out.append(backlund_map(out[-1]))
        except DegeneratePointError as e:
            raise DegeneratePointError(f"step {k + 1}: {e}") from e
    return out


@dataclass(frozen=True)
class CommutationReport:
    """Endpoint comparison of map-then-flow against flow-then-map."""

    discrepancy: float
    flow_then_map: PhasePoint
    map_then_flow: PhasePoint


def flow_commutation_check(x: PhasePoint, t: float, h: float = 1e-4) -> CommutationReport:
    """Compare backlund(flow_t(x)) with flow_t(backlund(x)) numerically.

    Both paths use the fixed-step RK4 flow; the report carries the
    maximum coordinate discrepancy between the two endpoints.
    """
    xf = x.to_float()
    path_a = backlund_map(rk4_endpoint(xf, t, h))
    path_b = rk4_endpoint(backlund_map(xf), t, h)
    disc = max(max(abs(a - b) for a, b in zip(path_a.z, path_b.z)),
               max(abs(a - b) for a, b in zip(path_a.Q, path_b.Q)))
    return CommutationReport(disc, path_a, path_b)
