"""Conserved quantities F_0..F_2n by two independent routes.

Route one reads the F_i off the characteristic polynomial of the Lax
matrix: det(lambda*E - L) = sum_i (-1)^i F_i lambda^(2n-i).

Route two sums weighted chains of intervals in the index set
I = {1 < 2 < ... < n < nbar < ... < 1bar}, identified with {1..2n} via
kbar = 2n+1-k.  An interval (x, y) carries a nonzero weight w(x, y) for
exactly six shapes:

    (k, k)         ->  z_k
    (k, k+1)       -> -Q_k z_k                (k < n)
    (kbar, kbar)   ->  z_k^{-1}
    (kbar, k-1bar) -> -Q_{k-1} z_k^{-1}       (k > 1)
    (k, kbar)      -> -z_k Q_k Q_{k+1}...Q_n
    (k, k+1bar)    ->  z_k Q_k Q_{k+1}...Q_n  (k < n)

The interval (n, nbar) is both adjacent and long-dashed; its weight is
the long-dashed one, -z_n Q_n.  F_i is the sum over chains
x_1 <= y_1 < x_2 <= y_2 < ... < x_i <= y_i of the products of the
interval weights.

The "improved" variant prunes the chains that cancel in pairs: intervals
(k, kbar) with k < n are dropped, and an interval (k, k+1bar) must be
followed immediately by one starting at kbar.  Both variants expand to
the same polynomial; the pruning is exactly the pairwise cancellation
coming from w(k, k+1bar) = -w(k, kbar).  Both variants read one
interval table per rank, the improved one with those entries dropped or
marked; a row names its weight by its factors, which ``_chain_sums``
multiplies.  ``_chain_sums`` is the one expansion of route two: one
O(n^2) pass over a table, in any ring.  Over the Laurent variables, on
either table, it gives ``f_poly``; at a point, on the improved table,
it gives the F_i of an exact point (``conserved_values_by_path``), the
CLI's check of the two routes and the flow's F(t).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import exp
from typing import NamedTuple, Sequence

from .errors import DegeneratePointError, ModeError
from .laurent import LaurentPoly
from .lax import PhasePoint, _inverse_by_gamma2, build_factors, build_lax
from .linalg import _UNITS, SquareMatrix, conjugate, solve

#: Symbolic expansion guard: chain enumeration grows quickly with n, so
#: ``f_poly`` raises ValueError above it, before expanding anything.  The
#: chain-sum pass expands nothing and runs at every rank.
MAX_SYMBOLIC_RANK = 6


@lru_cache(maxsize=None)
def _interval_table(n: int, improved: bool) -> tuple:
    """The weighted intervals of each start x = 1..2n, at index x - 1.

    Each row lists (y, sign, factors, forces_next) in increasing y.  A
    factor is an index into (z_1..z_n, 1/z_1..1/z_n, Q_1..Q_n), z_k or
    1/z_k first and then the Q_k in increasing k, and the weight of
    (x, y) is sign times the product of the factors (``_exponents``).
    The improved table drops (k, kbar) for k < n, and its (k, k+1bar)
    forces the next interval to start at kbar.
    """
    rows = []
    for k in range(1, n + 1):               # x = k
        z, tail = (k - 1,), tuple(range(2 * n + k - 1, 3 * n))  # z_k; Q_k..Q_n
        row = [(k, 1, z, False)]
        if k < n:
            row += [(k + 1, -1, (*z, 2 * n + k - 1), False), (2 * n - k, 1, z + tail, improved)]
        if k == n or not improved:
            row.append((2 * n + 1 - k, -1, z + tail, False))
        rows.append(tuple(row))
    for k in range(n, 0, -1):               # x = kbar
        x, zinv = 2 * n + 1 - k, (n + k - 1,)
        row = [(x, 1, zinv, False)]
        if k > 1:
            row.append((x + 1, -1, (*zinv, 2 * n + k - 2), False))
        rows.append(tuple(row))
    return tuple(rows)


def _exponents(n: int, factors: Sequence[int]) -> tuple[tuple, tuple]:
    """The (z exponents, Q exponents) of the product of ``factors``, indices
    into (z_1..z_n, 1/z_1..1/z_n, Q_1..Q_n)."""
    counts = [0] * (3 * n)
    for f in factors:
        counts[f] += 1
    return tuple(a - b for a, b in zip(counts, counts[n:2 * n])), tuple(counts[2 * n:])


def interval_weight(n: int, x: int, y: int) -> LaurentPoly:
    """The weight w(x, y) of the shortest path from line x to line y.

    Indices are 1-based elements of {1..2n}; any pair outside the six
    weighted shapes of the module docstring (including x > y) gets the
    zero polynomial.
    """
    if not (1 <= x <= 2 * n and 1 <= y <= 2 * n):
        raise ValueError(f"indices must lie in 1..{2 * n}")
    for end, sign, factors, _ in _interval_table(n, False)[x - 1]:
        if end == y:
            return LaurentPoly.monomial(n, *_exponents(n, factors), sign)
    return LaurentPoly.zero(n)


@lru_cache(maxsize=None)
def f_poly(n: int, i: int, mode: str = "original") -> LaurentPoly:
    """The conserved quantity F_i as an exact Laurent polynomial.

    mode "original" sums over all interval chains; mode "improved" prunes
    the pairwise-cancelling chains as described in the module docstring.
    The mode picks the interval table that ``_f_polys`` runs the chain-sum
    pass on, once per rank and mode.  F_0 = 1 by convention.  A rank above
    ``MAX_SYMBOLIC_RANK`` raises the path-formula route's ValueError before
    anything is expanded.
    """
    if n > MAX_SYMBOLIC_RANK:
        raise ValueError(f"path-formula route is capped at n <= {MAX_SYMBOLIC_RANK}")
    if not 0 <= i <= 2 * n:
        raise ValueError(f"need 0 <= i <= 2n, got i={i}")
    if mode not in ("original", "improved"):
        raise ValueError(f"unknown mode {mode!r}")
    return _f_polys(n, mode)[i]


@lru_cache(maxsize=None)
def _f_polys(n: int, mode: str) -> tuple[LaurentPoly, ...]:
    """F_0..F_2n of one rank and mode: the chain-sum pass over the Laurent
    variables, on the mode's interval table.

    ``_chain_sums`` adds each weight times its continuation to a
    ``LaurentPoly`` term by term, so the storage order is that of the ring
    recursion, which the float sums of ``evaluate`` follow.  Palindromic
    symmetry F_i = F_2n-i leaves 6 745 distinct monomials among the
    17 089 terms at n = 6, and the keys have 729 distinct z-halves and 126
    distinct Q-halves; each key, each half and each coefficient value is
    kept as one object that every F_i holding it shares.  That keeps the
    expanded F_i at n = 6 near 67 B a term after a float evaluate, against
    132 B with only keys and coefficients shared and 321 B when each term
    holds the objects the pass made for it (tracemalloc, Python 3.11.7).
    """
    z = [LaurentPoly.z_var(n, k) for k in range(1, n + 1)]
    zinv = [LaurentPoly.z_var(n, k, -1) for k in range(1, n + 1)]
    Q = [LaurentPoly.q_var(n, k) for k in range(1, n + 1)]
    sums = _chain_sums(n, z, zinv, Q, LaurentPoly.one(n), LaurentPoly.zero(n),
                       _interval_table(n, mode == "improved"))
    # a key is a pair of tuples, a half a tuple of ints and a coefficient a
    # Fraction, so no object of one kind equals one of another
    shared: dict = {}

    def share(v):
        return shared.setdefault(v, v)

    return tuple(LaurentPoly._trusted(n, {share((share(ez), share(eq))): share(c)
                                          for (ez, eq), c in p.terms.items()})
                 for p in sums)


def _chain_sums(n: int, z, zinv, Q, one, zero, table=None) -> tuple:
    """F_0..F_2n at (z, Q) by one backward pass over an interval table, by
    default the improved one.

    ``z``, ``zinv`` and ``Q`` hold z_k, 1/z_k and Q_k at index k - 1, in
    any ring of the ring contract (``dynamics``) with units ``one`` and
    ``zero``.  A weight is the product of its table factors, in their
    order, negated where its sign is -1.  For each position, from 2n down
    to 1, ``forced[pos][l]`` is the sum over chains of l intervals whose
    first starts at pos, and ``free[pos][l]`` the sum over chains of l
    intervals starting at pos or later; F_l = free[1][l].  An interval (pos, y) that forces the next
    start continues with forced[y + 1], any other with free[y + 1].  The
    pass takes O(n^2) ring operations; over the Laurent variables it is
    ``f_poly``'s expansion (``_f_polys``).
    """
    if table is None:
        table = _interval_table(n, True)
    d = 2 * n
    vals = (*z, *zinv, *Q)
    free = [None] * (d + 2)
    forced = [None] * (d + 2)
    free[d + 1] = [one] + [zero] * d
    forced[d + 1] = [zero] * (d + 1)
    for pos in range(d, 0, -1):
        start = [zero] * (d + 1)
        for y, sign, factors, nxt_forced in table[pos - 1]:
            w = vals[factors[0]]
            for k in factors[1:]:
                w = w * vals[k]
            if sign < 0:
                w = -w
            tail = forced[y + 1] if nxt_forced else free[y + 1]
            for length in range(1, d - y + 2):  # chains from y + 1 have <= 2n - y intervals
                start[length] = start[length] + w * tail[length - 1]
        forced[pos] = start
        free[pos] = [a + b for a, b in zip(free[pos + 1], start)]
    return tuple(free[1])


def conserved_values(x: PhasePoint) -> tuple:
    """F_0..F_2n at x through the characteristic-polynomial route.

    At an exact point the F_i are read off the characteristic polynomial
    of L^{-1}, and at a float point off that of L (see
    ``_char_poly_values``).  Like ``build_lax``, an exact point's values
    are memoized for the last 8 points (both routes of a Backlund step
    reach the same point); float points are never memoized, since -0.0
    and 0.0 are equal keys.
    """
    if x.mode == "exact":
        return _conserved_values_exact(x)
    return _char_poly_values(x)


def _char_poly_values(x: PhasePoint) -> tuple:
    """F_i = (-1)^i p_i, where p_0..p_2n are the coefficients of
    p_L(lambda) = det(lambda*E - L), highest degree first.

    At an exact point p_L comes from p_{L^{-1}}, whose monic coefficients
    c_0..c_d (d = 2n) are those of ``char_poly`` of L^{-1} as
    ``lax._inverse_by_gamma2`` reads it off ``build_lax(x)``, whose memo
    already holds L at a point of a Backlund orbit.  That matrix is
    already upper Hessenberg, so the exact Hessenberg reduction has
    nothing to do, and the entries do not swell as they do when the dense
    L is reduced.  For every
    invertible L, p_L(lambda) = (-1)^d det L lambda^d p_{L^{-1}}(1/lambda),
    so p_L's coefficients, highest first, are c_d, .., c_0 divided by c_d:
    exact, with F_0 and F_2n computed, not assumed to be 1.

    A float point keeps ``char_poly`` of ``build_lax(x)``: float reduction
    does not swell; this route is a flow's F(0) from n = 4 on, so it gives
    the float drift values their pinned bits there (``SIMULATE_GOLDEN`` at
    n = 4, 6 and 8); and it is the call through which a traced flow run
    reaches the lax and linalg layers.
    """
    if x.mode == "float":
        coeffs = build_lax(x).char_poly()
    else:
        rows = _inverse_by_gamma2(x.n, build_lax(x).rows, x.Q[-1], *_UNITS["exact"])
        c = SquareMatrix._trusted(tuple(map(tuple, rows)), "exact").char_poly()
        coeffs = [v / c[-1] for v in reversed(c)]
    return tuple(-c if i % 2 else c for i, c in enumerate(coeffs))


_conserved_values_exact = lru_cache(maxsize=8)(_char_poly_values)


def conserved_values_by_path(x: PhasePoint) -> tuple:
    """F_0..F_2n at x by the path formula.

    At an exact point this is the chain-sum pass (``_path_sums``), whose
    Fractions equal the expanded ``f_poly`` at x.  At a float point it
    evaluates ``f_poly(n, i)`` term by term: at n <= 3 those bits are the
    F(0) of a flow (``dynamics.integrate``), pinned by its golden
    trajectories, and the pass rounds differently.  An exact point runs at
    every rank; a float point above ``MAX_SYMBOLIC_RANK`` gets ``f_poly``'s
    ValueError.
    """
    if x.mode == "exact":
        return _path_sums(x)
    return tuple(f_poly(x.n, i).evaluate(x.z, x.Q) for i in range(2 * x.n + 1))


def _path_sums(x: PhasePoint) -> tuple:
    """F_0..F_2n at x by the chain-sum pass, in x's mode."""
    return _chain_sums(x.n, x.z, [1 / w for w in x.z], x.Q, *_UNITS[x.mode])


def elementary_symmetric(i: int, values: Sequence):
    """The elementary symmetric polynomial e_i of the given values."""
    if i < 0:
        raise ValueError("need i >= 0")
    if i > len(values):
        return 0
    return _elementary_symmetric_up_to(i, values)[i]


def _elementary_symmetric_up_to(i: int, values: Sequence) -> list:
    """[e_0, .., e_i] of the given values, by one run of the recursion."""
    acc = [1] + [0] * i
    for v in values:
        for j in range(i, 0, -1):
            acc[j] = acc[j] + v * acc[j - 1]
    return acc


def elementary_symmetric_z_poly(n: int, i: int) -> LaurentPoly:
    """e_i(z_1..z_n, z_1^{-1}..z_n^{-1}) as a Laurent polynomial."""
    if i < 0:
        raise ValueError("need i >= 0")
    polys = _elementary_symmetric_z_polys(n)
    return polys[i] if i < len(polys) else LaurentPoly.zero(n)


@lru_cache(maxsize=None)
def _elementary_symmetric_z_polys(n: int) -> tuple:
    """e_0..e_2n of (z_1..z_n, z_1^{-1}..z_n^{-1}) as Laurent polynomials."""
    values = [LaurentPoly.z_var(n, k) for k in range(1, n + 1)]
    values += [LaurentPoly.z_var(n, k, -1) for k in range(1, n + 1)]
    return tuple(LaurentPoly.zero(n) + e for e in _elementary_symmetric_up_to(2 * n, values))


def ideal_generator(i: int, x: PhasePoint, eps: Sequence[float]) -> float:
    """F_i(x) - e_i(e^{eps_1}, .., e^{eps_n}, e^{-eps_1}, .., e^{-eps_n}).

    These differences generate the defining ideal of the Borel-type
    presentation of the equivariant quantum K-ring attached to the system.
    """
    if not 0 <= i <= 2 * x.n:
        raise ValueError(f"need 0 <= i <= 2n, got i={i}")
    if len(eps) != x.n:
        raise ValueError("need one torus weight per rank")
    f = conserved_values(x)[i]
    values = [exp(e) for e in eps] + [exp(-e) for e in eps]
    return float(f) - float(elementary_symmetric(i, values))


class PathWeightReport(NamedTuple):
    """Outcome of the executable factorization oracle behind the path formula."""

    c_factorization_ok: bool        # C = Z * (D Lambda D^{-1})
    three_factor_ok: bool           # M = diag(z, z^{-1} reversed) * bidiag * corner
    entry_law_ok: bool              # M[p, q] = (-1)^(q-p) w(p, q)
    spectrum_match_ok: bool         # char_poly(Lambda^{-1} M) = char_poly(L)

    @property
    def all_ok(self) -> bool:
        return (self.c_factorization_ok and self.three_factor_ok
                and self.entry_law_ok and self.spectrum_match_ok)


def path_weight_oracle(x: PhasePoint) -> PathWeightReport:
    """Verify the four exact identities behind the path formula at x.

    The conjugating diagonal D needs all Q_i != 0 to be invertible, so
    points with a vanishing Q_i raise DegeneratePointError (the two main
    conserved-quantity routes remain total there).
    """
    if x.mode != "exact":
        raise ModeError("the factorization oracle runs in exact mode only")
    if any(q == 0 for q in x.Q):
        raise DegeneratePointError("oracle needs all Q_i != 0 (D must be invertible)")
    n, z, Q = x.n, x.z, x.Q
    d = 2 * n

    qprod = [Fraction(1)]
    zprod = [Fraction(1)]
    for k in range(n):
        qprod.append(qprod[-1] * Q[k])
        zprod.append(zprod[-1] * z[k])
    a = [qprod[i] * zprod[i] for i in range(n)]            # a_i = bQ_{i-1} bz_{i-1}
    b = [qprod[n] * zprod[n - i] for i in range(1, n + 1)]  # b_i = bQ_n bz_{n-i}

    def diag(values) -> list[list]:
        return [[v if i == j else Fraction(0) for j in range(d)] for i, v in enumerate(values)]

    ones = [Fraction(1)] * d
    Lam, bidiag, corner = diag(ones), diag(ones), diag(ones)
    for k in range(d - 1):
        Lam[k + 1][k] = Fraction(1)
    for k in range(1, n):
        bidiag[k - 1][k] = Q[k - 1]
        bidiag[n + k - 1][n + k] = Q[n - k - 1]
    tail = Fraction(1)
    for k in range(n, 0, -1):
        tail *= Q[k - 1]  # Q_k .. Q_n
        corner[k - 1][d - k] = tail
    D, Z, zdiag, Lam, bidiag, corner = (
        SquareMatrix(rows, "exact")
        for rows in (diag(a + b), diag([*ones[:n], *z[::-1]]),
                     diag([*z, *(1 / v for v in z[::-1])]), Lam, bidiag, corner))

    # no inverse is taken: D is diagonal, so D Lambda D^{-1} is the transpose
    # of D^{-1} Lambda^T D, and D^{-1} Z^{-1} N B D solves (Z D) M = N B D
    N, B, C = build_factors(x)
    c_ok = (C == Z @ conjugate(D, Lam.transpose()).transpose())

    M = solve(Z @ D, N @ B @ D)
    three_ok = (M == zdiag @ bidiag @ corner)

    entry_ok = True
    for p in range(1, d + 1):
        for q in range(1, d + 1):
            w = interval_weight(n, p, q).evaluate(z, Q)
            if M[p - 1, q - 1] != (-1) ** (q - p) * w:
                entry_ok = False

    # Lambda is unit lower triangular: det(lambda*Lambda - M) = det(lambda*E - Lambda^{-1} M)
    spectrum_ok = solve(Lam, M).char_poly() == build_lax(x).char_poly()

    return PathWeightReport(c_ok, three_ok, entry_ok, spectrum_ok)
