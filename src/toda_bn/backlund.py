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
conjugate of L).  Neither is defined where some M_i, 0 < i < n,
vanishes; ``_aux`` names the first such i for both.  iterate steps an
orbit along either route and names the step at which it fails.

The conjugation route takes no dense inverse: kr_factors writes K and R
row by row, takes C from lax._c_rows, the writer build_factors uses, and
checks the factorization as C R = K, and backlund_conjugate takes L+
from linalg.conjugate, which solves K L+ = L K by Gaussian elimination.
K is tridiagonal (its only entry outside the two diagonal blocks,
M_{n-1} a_n b_n, sits on the subdiagonal) with det K = (z_1 .. z_n)^2,
so wherever kr_factors succeeds the elimination, which skips zeros,
touches only K's band and the fill-in of its interchanges; at a
rational point it runs on int pairs, and L K reaches it as pairs.
parameters_from_lax reads x+ off L+.

The closed-form K/R display is ambiguous at n = 1 (the single diagonal
entry is both "first row" and "last row" of the pattern), so kr_factors
rejects n = 1; the closed-form map backlund_map handles n = 1 fine.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import DegeneratePointError, TodaError
from .lax import PhasePoint, _c_rows, _qz, build_lax, parameters_from_lax
from .linalg import _UNITS, SquareMatrix, _check_finite, close, conjugate
from .dynamics import rk4_endpoint

#: Relative tolerance, against max(1, max|K|), of the float-mode C R = K
#: self-check.
KR_CHECK_RTOL = 1e-9


class KRFactors(NamedTuple):
    """Closed-form factors of C = K @ R^{-1}."""

    K: SquareMatrix
    R: SquareMatrix


def _aux(x: PhasePoint):
    """(a, b, M) at x; a zero M_i raises DegeneratePointError naming i."""
    n = x.n
    one = _UNITS[x.mode][0]
    a = tuple(_qz(x))
    b = x.z
    M = [one] * (n + 2)
    for i in range(1, n):
        M[i] = 1 - a[i - 1] / b[i]
        if M[i] == 0:
            raise DegeneratePointError(f"M_{i} = 1 - Q_{i} z_{i} / z_{i + 1} vanishes")
    return a, b, tuple(M)


def _check_divisor(name: str, u: float, v: float) -> None:
    """Raise ValueError naming the float product u v, a divisor, if it underflows to 0.0."""
    if u * v == 0:
        raise ValueError(f"{name} underflows to 0.0: {u!r} * {v!r}")


def _check_square(name: str, v: float, divides: bool) -> None:
    """Raise ValueError naming the float square v ** 2 if it overflows, where
    ``**`` raises OverflowError, or if it is a divisor and underflows to 0.0."""
    try:
        square = v ** 2
    except OverflowError:
        raise ValueError(f"{name} ** 2 overflows: {v!r}") from None
    if divides and square == 0:
        raise ValueError(f"{name} ** 2 underflows to 0.0: {v!r}")


def kr_factors(x: PhasePoint) -> KRFactors:
    """Build K in G_minus and R in G_plus with C = K @ R^{-1}, entrywise.

    Requires n >= 2 and M_i != 0 for 1 <= i <= n-1.  Every call re-checks
    the factorization as the product C R = K, which needs no inverse:
    exactly at a rational point, and within KR_CHECK_RTOL at a float point.
    At a float point, an overflowing Q_k z_k, a divisor z_i z_{i+1} or
    M_i z_{i+1} that underflows to 0.0, or a non-finite entry of K or of
    C R, raises ValueError naming it.
    """
    n = x.n
    if n < 2:
        raise DegeneratePointError(
            "closed-form K/R factors are defined for n >= 2 only")
    a, b, M = _aux(x)
    mode = x.mode
    one, zero = _UNITS[mode]
    if mode == "float":  # the divisors of N_i and of R22's superdiagonal
        for i in range(1, n - 1):
            _check_divisor(f"z_{i + 1} z_{i + 2}", b[i], b[i + 1])
        for j in range(1, n):
            _check_divisor(f"M_{j} z_{j + 1}", M[j], b[j])
    N = tuple(1 - a[i - 1] * a[i] / (b[i] * b[i + 1]) for i in range(1, n - 1))

    # K = [[K11, 0], [K12, J K11 J]] and R = [[R11, 0], [0, R22]], 0-based
    d = 2 * n
    K = [[zero] * d for _ in range(d)]
    R = [[zero] * d for _ in range(d)]
    for i in range(n):
        if i == 0:
            k = b[0] / M[1]
        elif i < n - 1:
            k = N[i - 1] * b[i] / M[i + 1]
        else:
            k = b[n - 1]
        K[i][i] = K[d - 1 - i][d - 1 - i] = k
        if i + 1 < n:
            K[i][i + 1] = K[d - 1 - i][d - 2 - i] = one
        if i:
            K[i][i - 1] = K[d - 1 - i][d - i] = M[i - 1] * a[i - 1] * b[i - 1] / M[i]
        R[i][i] = M[i] * b[i] / M[i + 1]
        R[n + i][n + i] = one
        if i + 1 < n:
            R[i][i + 1] = one
            j = n - 1 - i  # R22's superdiagonal entries appear in reversed order
            R[n + i][n + i + 1] = M[j - 1] * a[j - 1] * b[j - 1] / (M[j] * b[j])
    K[n][n - 1] = M[n - 1] * a[n - 1] * b[n - 1]  # K12

    C = _c_rows(n, b, a, one, zero)
    K, R, C = (SquareMatrix._trusted(tuple(map(tuple, m)), mode) for m in (K, R, C))
    rebuilt = C @ R
    if mode == "exact":
        if rebuilt != K:
            raise RuntimeError("internal error: C R does not rebuild K")
    else:
        _check_finite(K.rows, "K")
        _check_finite(rebuilt.rows, "C R")
        scale = K.max_abs()
        if not all(close(v, w, mode, KR_CHECK_RTOL, scale)
                   for row, want in zip(rebuilt.rows, K.rows) for v, w in zip(row, want)):
            raise DegeneratePointError("C R = K check failed beyond float tolerance")
    return KRFactors(K, R)


def backlund_map(x: PhasePoint) -> PhasePoint:
    """The closed-form birational map x -> x+; at a float point, an
    overflowing Q_k z_k, M_i ** 2 or z_i ** 2, or a divisor M_i ** 2 or
    z_i ** 2 (i > 1) that underflows to 0.0, raises ValueError naming it."""
    n = x.n
    _, _, M = _aux(x)
    one, zero = _UNITS[x.mode]
    if x.mode == "float":  # the squares of Q_i+
        for i in range(1, n + 1):
            _check_square(f"M_{i}", M[i], True)
            _check_square(f"z_{i}", x.z[i - 1], i > 1)
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


def backlund_conjugate(x: PhasePoint) -> PhasePoint:
    """x -> x+ through L+ = K^{-1} L K, one elimination on K's band, and
    parameter recovery; at a float point, a non-finite entry of K or L K
    raises ValueError."""
    return parameters_from_lax(conjugate(kr_factors(x).K, build_lax(x)))


def iterate(x: PhasePoint, steps: int, step=None) -> list[PhasePoint]:
    """Repeated Backlund step; returns [x, x+, x++, ...] (steps+1 points).

    ``step`` is the route: backlund_map (the default, looked up at each
    call) or backlund_conjugate.  Every conserved quantity is constant
    along the sequence.  A TodaError of step k is re-raised as the same
    class with "step k: " in front of its message.
    """
    if steps < 0:
        raise ValueError("need steps >= 0")
    step = step or backlund_map
    out = [x]
    for k in range(steps):
        try:
            out.append(step(out[-1]))
        except TodaError as e:
            raise type(e)(f"step {k + 1}: {e}") from e
    return out


class CommutationReport(NamedTuple):
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
