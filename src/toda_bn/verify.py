"""Seeded randomized identity suite.

Every algebraic identity the package implements through two independent
routes becomes one named check here.  Checks draw random rational points
with numerators and denominators of height at most 9 (resampling the rare
degenerate draws), so "pass" means exact agreement of exact arithmetic,
not closeness.  Float checks (flows, charts, exponentials) carry their
tolerances inline.

The suite is deterministic: each identity runs on its own RNG stream
derived from the master seed, and the report order is fixed.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from . import backlund as bk
from . import conserved as cv
from . import dynamics as dy
from . import lax as lx
from . import splitting as sp
from .errors import DegeneratePointError
from .laurent import LaurentPoly
from .linalg import SquareMatrix, conjugate


@dataclass
class VerifySuiteConfig:
    n_max: int = 4
    trials: int = 50
    seed: int = 7
    mode: str = "both"  # rational | float | both

    def __post_init__(self):
        if self.n_max < 1 or self.trials < 1:
            raise ValueError("need n_max >= 1 and trials >= 1")
        if self.mode not in ("rational", "float", "both"):
            raise ValueError("mode must be rational, float or both")


@dataclass
class IdentityResult:
    name: str
    mode: str
    passed: bool
    trials: int = 0
    resamples: int = 0
    counterexample: dict | None = None
    details: dict = field(default_factory=dict)

    def to_json_obj(self):
        return {
            "identity": self.name,
            "mode": self.mode,
            "passed": self.passed,
            "trials": self.trials,
            "resamples": self.resamples,
            "counterexample": self.counterexample,
            "details": self.details,
        }


# -- random sampling ----------------------------------------------------------


#: The numerators random_rational draws from.
_NUMERATORS = tuple(k for k in range(-9, 10) if k)


def random_rational(rng: random.Random) -> Fraction:
    """Nonzero rational with numerator and denominator in [-9, 9] \\ {0}."""
    num = rng.choice(_NUMERATORS)
    den = rng.randint(1, 9)
    return Fraction(num, den)


def random_point(n: int, rng: random.Random) -> lx.PhasePoint:
    return lx.PhasePoint(
        n,
        tuple(random_rational(rng) for _ in range(n)),
        tuple(random_rational(rng) for _ in range(n)),
    )


def sample_generic(draw, probe) -> tuple:
    """Call `draw()` until `probe` accepts the sample, i.e. stops raising
    DegeneratePointError; returns (sample, probe(sample), redraws)."""
    redraws = 0
    while True:
        x = draw()
        try:
            return x, probe(x), redraws
        except DegeneratePointError:
            redraws += 1
            if redraws > 500:
                raise


def random_matrix(d: int, rng: random.Random) -> SquareMatrix:
    return SquareMatrix([[random_rational(rng) for _ in range(d)] for _ in range(d)])


def _exact_rows(d: int, diagonal: Fraction) -> list[list]:
    """d x d rows of Fractions, ``diagonal`` on the diagonal and 0 elsewhere."""
    zero = Fraction(0)
    return [[diagonal if i == j else zero for j in range(d)] for i in range(d)]


def _exact_matrix(rows: list[list]) -> SquareMatrix:
    """The exact matrix of rows whose every entry is a Fraction."""
    return SquareMatrix._trusted(tuple(map(tuple, rows)), "exact")


def random_alg_plus(n: int, rng: random.Random) -> SquareMatrix:
    m = _exact_rows(2 * n, Fraction(0))
    for i in range(n):
        for j in range(n):
            if j >= i:
                m[i][j] = random_rational(rng)
            if j > i:
                m[n + i][n + j] = random_rational(rng)
            m[i][n + j] = random_rational(rng)
    return _exact_matrix(m)


def random_alg_minus(n: int, rng: random.Random) -> SquareMatrix:
    u = [[random_rational(rng) for _ in range(n)] for _ in range(n)]
    v = [[random_rational(rng) for _ in range(n)] for _ in range(n)]
    U = SquareMatrix(u)
    return SquareMatrix.from_blocks([[U, SquareMatrix.zero(n)],
                                     [SquareMatrix(v), U.flip()]])


def random_g_plus(n: int, rng: random.Random) -> SquareMatrix:
    m = _exact_rows(2 * n, Fraction(1))
    for i in range(n):
        m[i][i] = random_rational(rng)  # nonzero by construction
        for j in range(n):
            if j > i:
                m[i][j] = random_rational(rng)
                m[n + i][n + j] = random_rational(rng)
            m[i][n + j] = random_rational(rng)
    return _exact_matrix(m)


def _invertible_upper_left(m: SquareMatrix):
    if m.block(0, 0, m.dim // 2).det() == 0:
        raise DegeneratePointError("singular upper-left block")


def random_g_minus(n: int, rng: random.Random) -> SquareMatrix:
    return sample_generic(lambda: random_alg_minus(n, rng), _invertible_upper_left)[0]


def random_canonical(n: int, rng: random.Random, scale: float = 1.0) -> dy.CanonicalPoint:
    return dy.CanonicalPoint(
        tuple(rng.uniform(-scale, scale) for _ in range(n)),
        tuple(rng.uniform(-scale, scale) for _ in range(n)),
    )


# -- printed reference formulas ----------------------------------------------


def printed_lax_n2() -> tuple:
    """The 4x4 Lax matrix at n = 2, entry by entry, as Laurent polynomials."""
    n = 2
    one = LaurentPoly.one(n)
    z1, z2 = LaurentPoly.z_var(n, 1), LaurentPoly.z_var(n, 2)
    z1i, z2i = LaurentPoly.z_var(n, 1, -1), LaurentPoly.z_var(n, 2, -1)
    q1, q2 = LaurentPoly.q_var(n, 1), LaurentPoly.q_var(n, 2)
    zero = LaurentPoly.zero(n)
    return (
        ((one - q1) * z1, one, zero, one),
        (-(q1 * (one - q2) * z1 * z2), (one - q2) * z2, one, zero),
        ((one - q1) * q1 * q2 * z1, -((one - q1) * q2), (one - q1) * z2i, q1),
        (-(q1 * q2), q2 * z1i, -(z1i * z2i), z1i),
    )


def printed_f1(n: int) -> LaurentPoly:
    """(1-Q_1) z_1 + .. + (1-Q_n) z_n + (1-Q_{n-1}) z_n^{-1} + .. + z_1^{-1}."""
    acc = LaurentPoly.zero(n)
    one = LaurentPoly.one(n)
    for k in range(1, n + 1):
        acc = acc + (one - LaurentPoly.q_var(n, k)) * LaurentPoly.z_var(n, k)
        qprev = LaurentPoly.q_var(n, k - 1) if k >= 2 else LaurentPoly.zero(n)
        acc = acc + (one - qprev) * LaurentPoly.z_var(n, k, -1)
    return acc


def printed_f2_n2() -> LaurentPoly:
    n = 2
    one = LaurentPoly.one(n)
    z1, z2 = LaurentPoly.z_var(n, 1), LaurentPoly.z_var(n, 2)
    z1i, z2i = LaurentPoly.z_var(n, 1, -1), LaurentPoly.z_var(n, 2, -1)
    q1, q2 = LaurentPoly.q_var(n, 1), LaurentPoly.q_var(n, 2)
    return ((one - q2) * z1 * z2 + (one - q1) * (one - q1) * z1 * z2i
            + LaurentPoly.constant(n, 2) - 2 * q1 + q1 * q2
            + (one - q2) * z1i * z2 + z1i * z2i)


def printed_backlund_n2(x: lx.PhasePoint) -> lx.PhasePoint:
    """The n = 2 closed-form map evaluated through its printed expressions."""
    z1, z2 = x.z
    q1, q2 = x.Q
    s = z2 - q1 * z1
    if s == 0:
        raise DegeneratePointError("z_2 - Q_1 z_1 vanishes")
    q1p = z1 ** 2 * q1 / s ** 2
    q2p = s * z2 * q2
    if 1 - q1p == 0 or 1 - q2p == 0:
        raise DegeneratePointError("1 - Q_i+ vanishes")
    z1p = z1 * z2 / ((1 - q1p) * s)
    z2p = (1 - q1p) * s / (1 - q2p)
    return lx.PhasePoint(2, (z1p, z2p), (q1p, q2p))


WORKED_POINT = lx.PhasePoint(2, (Fraction(2), Fraction(3)),
                             (Fraction(1, 2), Fraction(1, 5)))


# -- identity checks -----------------------------------------------------------


#: (name, mode, check) of each identity in report order; run_suite reads it per call.
IDENTITY_CHECKS: tuple = ()


def _identity(name: str, mode: str):
    """Register the decorated check as identity ``name`` of ``mode``; the
    registered function names its ``_passed`` or ``_fail`` outcome."""
    def register(check):
        @functools.wraps(check)
        def named(cfg: VerifySuiteConfig, rng: random.Random) -> IdentityResult:
            return IdentityResult(name, mode, *check(cfg, rng))
        global IDENTITY_CHECKS
        IDENTITY_CHECKS += ((name, mode, named),)
        return named
    return register


def _passed(trials=0, resamples=0, details=None) -> tuple:
    """A passing outcome: IdentityResult's fields from ``passed`` on."""
    return True, trials, resamples, None, details or {}


def _fail(counterexample, trials=0, resamples=0, details=None) -> tuple:
    return False, trials, resamples, counterexample, details or {}


@_identity("lax-matrix-printed-n2", "rational")
def check_lax_printed_n2(cfg: VerifySuiteConfig, rng: random.Random) -> tuple:
    """All 16 entries of the n = 2 Lax matrix match the reference display."""
    sym = lx.lax_symbolic(2)
    ref = printed_lax_n2()
    if sym != ref:
        bad = [(i, j) for i in range(4) for j in range(4) if sym[i][j] != ref[i][j]]
        return _fail({"structural_mismatch_at": bad})
    for t in range(cfg.trials):
        x = random_point(2, rng)
        got = lx.build_lax(x)
        want = lx.evaluate_matrix(ref, x)
        if got != want:
            return _fail({"point": x.to_json_obj()}, t)
    return _passed(cfg.trials, details={"structural_equality": True})


@_identity("printed-f1-f2", "rational")
def check_printed_f1_f2(cfg: VerifySuiteConfig, rng: random.Random) -> tuple:
    for n in range(1, min(cfg.n_max, 4) + 1):
        if cv.f_poly(n, 1) != printed_f1(n):
            return _fail({"n": n, "which": "F1"})
    if cfg.n_max >= 2 and cv.f_poly(2, 2) != printed_f2_n2():
        return _fail({"n": 2, "which": "F2"})
    return _passed()


@_identity("conserved-route-equivalence", "rational")
def check_route_equivalence(cfg: VerifySuiteConfig, rng: random.Random) -> tuple:
    """char-poly route == path formula == pruned path formula, exactly."""
    for n in range(1, cfg.n_max + 1):
        for i in range(2 * n + 1):
            if cv.f_poly(n, i, "original") != cv.f_poly(n, i, "improved"):
                return _fail({"n": n, "i": i, "which": "modes differ"})
        for t in range(cfg.trials):
            x = random_point(n, rng)
            fc = cv.conserved_values(x)
            fp = cv.conserved_values_by_path(x)
            if fc != fp:
                return _fail({"n": n, "point": x.to_json_obj()}, t)
    return _passed(cfg.trials * cfg.n_max)


@_identity("palindromic-symmetry", "rational")
def check_palindromic_symmetry(cfg: VerifySuiteConfig, rng: random.Random) -> tuple:
    """F_i = F_{2n-i} and F_0 = F_{2n} = 1; the shifted index i -> 2n+1-i
    is recorded for the report but not asserted (it fails pointwise)."""
    shifted_holds = True
    for n in range(1, cfg.n_max + 1):
        for t in range(cfg.trials):
            x = random_point(n, rng)
            f = cv.conserved_values(x)
            if f[0] != 1 or f[2 * n] != 1:
                return _fail({"n": n, "point": x.to_json_obj(), "which": "boundary"}, t)
            if any(f[i] != f[2 * n - i] for i in range(2 * n + 1)):
                return _fail({"n": n, "point": x.to_json_obj()}, t)
            if any(f[i] != f[2 * n + 1 - i] for i in range(1, 2 * n + 1)):
                shifted_holds = False
    return _passed(cfg.trials * cfg.n_max,
                   details={"shifted_index_identity_pointwise": shifted_holds})


@_identity("q-zero-structural-reduction", "rational")
def check_q_zero_reduction(cfg: VerifySuiteConfig, rng: random.Random) -> tuple:
    """Setting every Q_i = 0 collapses F_i to e_i(z, z^{-1}), structurally."""
    for n in range(1, cfg.n_max + 1):
        for i in range(2 * n + 1):
            if cv.f_poly(n, i).substitute_q_zero() != cv.elementary_symmetric_z_poly(n, i):
                return _fail({"n": n, "i": i})
    return _passed()


@_identity("ideal-generator-at-exponentials", "float")
def check_ideal_generator(cfg: VerifySuiteConfig, rng: random.Random) -> tuple:
    """The ring generators F_i - e_i(e^eps, e^-eps) vanish at Q = 0,
    z_j = e^{eps_j}; routes agree exactly at generic rational points.

    F_i and e_i here are sums of positive terms, e_i >= C(2n, i), so their
    rounding error is relative to e_i (Higham 2002, ch. 3-4): the bound is
    c n u e_i(values) with c = 16 and u = 2^-53.  The worst measured
    |F_i - e_i| / (u e_i) stays under c n / 2 at n = 1..12, 14 and 16
    (README, Tolerances)."""
    rtol = 16 * 2.0 ** -53
    worst = 0.0
    for n in range(1, cfg.n_max + 1):
        for t in range(5):
            eps = [rng.uniform(-0.5, 0.5) for _ in range(n)]
            vals = [math.exp(e) for e in eps] + [math.exp(-e) for e in eps]
            x = lx.PhasePoint(n, tuple(vals[:n]), (0.0,) * n)
            for i in range(1, 2 * n + 1):
                v = abs(cv.ideal_generator(i, x, eps))
                worst = max(worst, v)
                bound = rtol * n * cv.elementary_symmetric(i, vals)
                if v > bound:
                    return _fail({"n": n, "i": i, "eps": eps, "value": v, "bound": bound}, t)
        # eps = 0, i = 2n: F_2n - e_2n(1, .., 1) = 1 - 1
        x1 = lx.PhasePoint(n, (Fraction(1),) * n, (Fraction(0),) * n)
        if cv.ideal_generator(2 * n, x1, [0.0] * n) != 0.0:
            return _fail({"n": n, "which": "eps=0"})
        # exact two-route agreement at a generic rational point
        x = random_point(n, rng)
        eps = [rng.uniform(-0.5, 0.5) for _ in range(n)]
        vals = [math.exp(e) for e in eps] + [math.exp(-e) for e in eps]
        fc = cv.conserved_values(x)
        fp = cv.conserved_values_by_path(x)
        for i in range(1, 2 * n + 1):
            ei = cv.elementary_symmetric(i, vals)
            if float(fc[i]) - ei != float(fp[i]) - ei:
                return _fail({"n": n, "i": i, "which": "route"})
    return _passed(5 * cfg.n_max, details={"max_abs": worst})


@_identity("signed-path-weight-factorization", "rational")
def check_path_weight_factorization(cfg: VerifySuiteConfig, rng: random.Random) -> tuple:
    """The four exact identities of the signed-path-weight factorization."""
    trials = min(cfg.trials, 25)
    resamples = 0
    for n in range(1, min(cfg.n_max, 3) + 1):
        for t in range(trials):
            # the oracle raises DegeneratePointError exactly when some Q_i = 0
            x, rep, rs = sample_generic(lambda: random_point(n, rng), cv.path_weight_oracle)
            resamples += rs
            if not rep.all_ok:
                return _fail({"n": n, "point": x.to_json_obj(), "report": vars(rep)}, t, resamples)
        # documented degeneracy: any Q_i = 0 raises, while both conserved
        # routes still agree at that point
        xq0 = lx.PhasePoint(n, tuple(random_rational(rng) for _ in range(n)),
                            (Fraction(0),) * n)
        try:
            cv.path_weight_oracle(xq0)
            return _fail({"n": n, "which": "missing degeneracy"})
        except DegeneratePointError:
            pass
        if cv.conserved_values(xq0) != cv.conserved_values_by_path(xq0):
            return _fail({"n": n, "which": "routes at Q=0"})
    return _passed(trials * min(cfg.n_max, 3), resamples)


def lu_read(L: SquareMatrix) -> lx.PhasePoint:
    """The paper's read of (z, Q) off the unpivoted LU factors of L^{-1}:
    z_i = 1/upper[i,i] and Q_i = lower[i+1,i] upper[i,i] for i = 1..n."""
    n = L.dim // 2
    lower, upper = L.inverse().lu_unit_lower()
    return lx.PhasePoint(n, tuple(1 / upper[i, i] for i in range(n)),
                         tuple(lower[i + 1, i] * upper[i, i] for i in range(n)))


@_identity("parameter-roundtrip", "rational")
def check_parameter_roundtrip(cfg: VerifySuiteConfig, rng: random.Random) -> tuple:
    """Both routes back from build_lax(x) return x, exactly: the read-off
    of parameters_from_lax and the LU read of L^{-1} (lu_read)."""
    resamples = 0

    def both_routes(x):
        L = lx.build_lax(x)
        return lu_read(L), lx.parameters_from_lax(L)

    for n in range(1, cfg.n_max + 1):
        ones = lx.PhasePoint(n, (Fraction(1),) * n, (Fraction(0),) * n)
        if both_routes(ones) != (ones, ones):
            return _fail({"n": n, "which": "unit point"})
        for t in range(cfg.trials):
            x, back, rs = sample_generic(lambda: random_point(n, rng), both_routes)
            resamples += rs
            if back != (x, x):
                return _fail({"n": n, "point": x.to_json_obj()}, t, resamples)
    return _passed(cfg.trials * cfg.n_max, resamples)


def _unit_entries(d: int, *cells) -> SquareMatrix:
    """The exact d x d matrix with 1 at each (i, j) of ``cells`` and 0 elsewhere."""
    m = _exact_rows(d, Fraction(0))
    for i, j in cells:
        m[i][j] = Fraction(1)
    return _exact_matrix(m)


@_identity("projection-splitting-factorization", "rational")
def check_splitting(cfg: VerifySuiteConfig, rng: random.Random) -> tuple:
    """Projections, membership patterns, commutator closure and the
    unique two-sided group factorization."""
    resamples = 0
    trials = max(1, cfg.trials // 2)  # per rank
    for n in range(1, cfg.n_max + 1):
        d = 2 * n
        # free-entry counts of the patterns
        for which in ("g_plus", "g_minus"):
            if sp.pattern_dimension(n, which) != 2 * n * n:
                return _fail({"n": n, "which": f"dim {which}"})
        probe = 0
        for i in range(n):
            for j in range(n):
                probe += sp.membership(_unit_entries(d, (n + i, j)), "g_minus")
                u = _unit_entries(d, (i, j), (n + (n - 1 - i), n + (n - 1 - j)))
                probe += sp.membership(u, "g_minus")
        if probe != 2 * n * n:
            return _fail({"n": n, "which": "g_minus probe basis"})
        probe = sum(sp.membership(_unit_entries(d, (i, j)), "g_plus")
                    for i in range(d) for j in range(d))
        if probe != 2 * n * n:
            return _fail({"n": n, "which": "g_plus probe basis"})

        for t in range(trials):
            X = random_matrix(d, rng)
            pair = sp.project(X)
            if pair.plus + pair.minus != X:
                return _fail({"n": n, "which": "plus+minus"}, t)
            if not sp.membership(pair.plus, "g_plus") or \
               not sp.membership(pair.minus, "g_minus"):
                return _fail({"n": n, "which": "projection pattern"}, t)
            again = sp.project(pair.plus)
            if again.plus != pair.plus or again.minus != SquareMatrix.zero(d):
                return _fail({"n": n, "which": "idempotence"}, t)
            a1, a2 = random_alg_plus(n, rng), random_alg_plus(n, rng)
            if not sp.membership(a1.commutator(a2), "g_plus"):
                return _fail({"n": n, "which": "g_plus closure"}, t)
            b1, b2 = random_alg_minus(n, rng), random_alg_minus(n, rng)
            if not sp.membership(b1.commutator(b2), "g_minus"):
                return _fail({"n": n, "which": "g_minus closure"}, t)
            try:
                K, R = sp.factor_minus_plus(X)
            except DegeneratePointError:
                resamples += 1
                continue
            if K @ R != X or not sp.membership(K, "G_minus") \
                    or not sp.membership(R, "G_plus"):
                return _fail({"n": n, "which": "KR"}, t)
            K2, R2 = sp.factor_minus_plus(K @ R)
            if K2 != K or R2 != R:
                return _fail({"n": n, "which": "uniqueness"}, t)
        gm = random_g_minus(n, rng)
        K, R = sp.factor_minus_plus(gm)
        if K != gm or R != SquareMatrix.identity(d):
            return _fail({"n": n, "which": "G_minus fixed"})
    return _passed(trials * cfg.n_max, resamples)


@_identity("lax-hamilton-equivalence", "rational")
def check_lax_hamilton(cfg: VerifySuiteConfig, rng: random.Random) -> tuple:
    """The chain rule along the coordinate flow reproduces [L, pi_plus(L)]
    entry by entry, exactly; pi_plus(L) has the expected diagonal.

    dL/dt comes from one dual pass through L's formula with the tangent
    ``hamilton_rhs(x)`` (``dynamics.lax_along_flow``), whose value part
    must be ``build_lax(x)``; [L, pi_plus(L)] comes from the splitting,
    whose one projection also gives the diagonal checked here.
    """
    for n in range(1, cfg.n_max + 1):
        for t in range(cfg.trials):
            x = random_point(n, rng)
            L, dL = dy.lax_along_flow(x)
            plus = sp.project(L).plus
            if L != lx.build_lax(x) or dL != L.commutator(plus):
                return _fail({"n": n, "point": x.to_json_obj()}, t)
            Qb = (Fraction(0),) + x.Q
            for i in range(1, n + 1):
                want = (1 - x.Q[i - 1]) * x.z[i - 1] - (1 - Qb[i - 1]) / x.z[i - 1]
                if plus[i - 1, i - 1] != want:
                    return _fail({"n": n, "which": f"pi+ diag {i}"}, t)
            if any(plus[i, i] != 0 for i in range(n, 2 * n)):
                return _fail({"n": n, "which": "pi+ diag lower"}, t)
    return _passed(cfg.trials * cfg.n_max)


@_identity("poisson-structure-exact", "rational")
def check_poisson(cfg: VerifySuiteConfig, rng: random.Random) -> tuple:
    """Antisymmetry and the coordinate Jacobi identity of dynamics' Pi
    builder over the Laurent variables, and u' = {u, H} at points."""
    for n in range(1, min(cfg.n_max, 3) + 1):
        pi = dy._poisson_rows(n, [LaurentPoly.z_var(n, i) for i in range(1, n + 1)],
                              [LaurentPoly.q_var(n, i) for i in range(1, n + 1)],
                              LaurentPoly.zero(n))
        names = [f"Q{i}" for i in range(1, n + 1)] + [f"z{i}" for i in range(1, n + 1)]
        d = 2 * n
        for a in range(d):
            for b in range(d):
                if pi[a][b] != -pi[b][a]:
                    return _fail({"n": n, "which": "antisymmetry"})
        for a in range(d):
            for b in range(a + 1, d):
                for c in range(b + 1, d):
                    acc = LaurentPoly.zero(n)
                    for (u, v, w) in ((a, b, c), (b, c, a), (c, a, b)):
                        for e in range(d):
                            acc = acc + pi[u][e] * pi[v][w].partial_derivative(names[e])
                    if not acc.is_zero():
                        return _fail({"n": n, "which": f"jacobi {(a, b, c)}"})
    for n in range(1, cfg.n_max + 1):
        h = cv.f_poly(n, 1)
        names = [f"Q{i}" for i in range(1, n + 1)] + [f"z{i}" for i in range(1, n + 1)]
        grads = [h.partial_derivative(v) for v in names]
        for t in range(cfg.trials):
            x = random_point(n, rng)
            pi_x = dy.poisson_structure(x)
            gh = [g.evaluate(x.z, x.Q) for g in grads]
            udot = [sum(pi_x[a, b] * gh[b] for b in range(2 * n)) for a in range(2 * n)]
            dQ, dz = dy.hamilton_rhs(x)
            if tuple(udot[:n]) != dQ or tuple(udot[n:]) != dz:
                return _fail({"n": n, "point": x.to_json_obj()}, t)
    return _passed(cfg.trials * cfg.n_max)


@_identity("canonical-chart", "float")
def check_canonical_chart(cfg: VerifySuiteConfig, rng: random.Random) -> tuple:
    """Chart spot values, inverse-map round trip, induced bracket table,
    and agreement of the two Hamiltonian expressions."""
    c0 = dy.CanonicalPoint((0.0, 0.0), (0.0, 0.0))
    x0 = dy.to_phase(c0)
    spot = 4 + 2 * math.sqrt(2)
    if max(abs(x0.Q[0] + 1), abs(x0.Q[1] + 1),
           abs(x0.z[0] - math.sqrt(0.5)), abs(x0.z[1] - 1)) > 1e-12:
        return _fail({"which": "spot chart values"})
    if abs(dy.hamiltonian(x0) - spot) > 1e-12 or \
            abs(dy.hamiltonian_canonical(c0) - spot) > 1e-12:
        return _fail({"which": "spot H"})
    for n in range(1, cfg.n_max + 1):
        for t in range(20):
            c = random_canonical(n, rng)
            x = dy.to_phase(c)
            back = dy.from_phase(x)
            err = max(max(abs(a - b) for a, b in zip(back.q, c.q)),
                      max(abs(a - b) for a, b in zip(back.p, c.p)))
            if err > 1e-12:
                return _fail({"n": n, "which": "roundtrip", "err": err}, t)
            if abs(dy.hamiltonian_canonical(c) - dy.hamiltonian(x)) > 1e-12:
                return _fail({"n": n, "which": "H pullback"}, t)
            QQ, Qz, zz = dy.chart_brackets(c)
            pi_x = dy.poisson_structure(x)
            for i in range(n):
                for j in range(n):
                    if abs(QQ[i][j]) > 1e-10 or abs(zz[i][j]) > 1e-10:
                        return _fail({"n": n, "which": "QQ/zz table"}, t)
                    if abs(Qz[i][j] - pi_x[i, n + j]) > 1e-10:
                        return _fail({"n": n, "which": "Qz table"}, t)
    return _passed(20 * cfg.n_max)


@_identity("flow-conservation", "float")
def check_flow_conservation(cfg: VerifySuiteConfig, rng: random.Random) -> tuple:
    """RK4 drift bound and fourth-order scaling; factorization flow
    against RK4; the two conjugation routes against each other.

    The step starts at h = 1e-3 and is halved while the drift exceeds
    1e-8, at most three times (h >= 1.25e-4); details["h"] names it when
    it is not 1e-3.  Each halving cuts an RK4 truncation error about 16x,
    so the order check at h/2 still tells a fourth-order step from a
    lower-order one.
    """
    details = {}
    x3 = dy.to_phase(random_canonical(3, rng, scale=1.5))
    h = 1e-3
    traj = dy.integrate(x3, T=1.0, h=h)
    while traj.max_drift > 1e-8 and h > 1.25e-4:
        h /= 2
        traj = dy.integrate(x3, T=1.0, h=h)
    if h != 1e-3:
        details["h"] = h
    details["drift_h"] = traj.max_drift
    if traj.max_drift > 1e-8:
        return _fail({"which": "drift bound", "drift": traj.max_drift}, details=details)
    traj_half = dy.integrate(x3, T=1.0, h=h / 2)
    details["drift_h_half"] = traj_half.max_drift
    if traj_half.max_drift * 8 > traj.max_drift:
        return _fail({"which": "order check"}, details=details)
    for n in (2, 3):
        x = dy.to_phase(random_canonical(n, rng))
        la, lb = dy.flow_conjugations(x, 0.5)
        gap = max(abs(la[i, j] - lb[i, j]) for i in range(2 * n) for j in range(2 * n))
        details[f"route_gap_n{n}"] = gap
        if gap > 1e-9:
            return _fail({"n": n, "which": "a vs b route"}, details=details)
        xe = lx.parameters_from_lax(la)  # dy.exact_flow(x, 0.5), from the la in hand
        xr = dy.rk4_endpoint(x, 0.5, 1e-4)
        gap = max(max(abs(a - b) for a, b in zip(xe.z, xr.z)),
                  max(abs(a - b) for a, b in zip(xe.Q, xr.Q)))
        details[f"endpoint_gap_n{n}"] = gap
        if gap > 1e-6:
            return _fail({"n": n, "which": "exact vs rk4"}, details=details)
    # T = 0 and the Q = 0 fixed manifold
    single = dy.integrate(x3, T=0.0, h=1e-3)
    if len(single.states) != 1 or single.max_drift != 0.0:
        return _fail({"which": "T=0"}, details=details)
    xq0 = lx.PhasePoint(3, (1.3, 0.7, 2.1), (0.0, 0.0, 0.0))
    frozen = dy.integrate(xq0, T=0.1, h=1e-3)
    if any(s != xq0 for s in frozen.states):
        return _fail({"which": "Q=0 manifold"}, details=details)
    return _passed(1, details=details)


@_identity("backlund-exact", "rational")
def check_backlund_exact(cfg: VerifySuiteConfig, rng: random.Random) -> tuple:
    """Closed-form map == conjugation route; spectrum invariance; the
    printed n = 2 formulas; the fully worked point; Q = 0 fixed points."""
    resamples = 0
    xp = bk.backlund_map(WORKED_POINT)
    if xp.z != (6, -5) or xp.Q != (Fraction(1, 2), Fraction(6, 5)):
        return _fail({"which": "worked point"})
    if dy.hamiltonian(WORKED_POINT) != Fraction(61, 15) or \
            dy.hamiltonian(xp) != Fraction(61, 15):
        return _fail({"which": "worked point H"})
    seq = bk.iterate(WORKED_POINT, 10)
    f0 = cv.conserved_values(WORKED_POINT)
    if any(cv.conserved_values(s) != f0 for s in seq):
        return _fail({"which": "iterate invariance"})
    for _ in range(100):  # the printed n = 2 display gets its own comparison
        x, (a, want), rs = sample_generic(lambda: random_point(2, rng),
                                          lambda p: (bk.backlund_map(p), printed_backlund_n2(p)))
        resamples += rs
        if a != want:
            return _fail({"point": x.to_json_obj(), "which": "printed n=2"})
    for n in range(2, min(cfg.n_max, 4) + 1):
        for t in range(cfg.trials):
            x, (a, b), rs = sample_generic(
                lambda: random_point(n, rng),
                lambda p: (bk.backlund_map(p), bk.backlund_conjugate(p)))
            resamples += rs
            if a != b:
                return _fail({"n": n, "point": x.to_json_obj(),
                              "which": "two routes"}, t, resamples)
            if cv.conserved_values(a) != cv.conserved_values(x):
                return _fail({"n": n, "point": x.to_json_obj(),
                              "which": "invariance"}, t, resamples)
            if n == 2 and a != printed_backlund_n2(x):
                return _fail({"n": n, "point": x.to_json_obj(),
                              "which": "printed n=2"}, t, resamples)
        xq0 = lx.PhasePoint(n, tuple(random_rational(rng) for _ in range(n)),
                            (Fraction(0),) * n)
        if bk.backlund_map(xq0) != xq0:
            return _fail({"n": n, "which": "Q=0 fixed"})
    try:
        bk.kr_factors(random_point(1, rng))
        return _fail({"which": "n=1 must be rejected"})
    except DegeneratePointError:
        pass
    return _passed(cfg.trials * max(0, min(cfg.n_max, 4) - 1), resamples)


@_identity("backlund-flow-commutation", "float")
def check_backlund_commutation(cfg: VerifySuiteConfig, rng: random.Random) -> tuple:
    """The discrete map commutes with the continuous flow."""
    details = {}
    for n in (2, 3):
        x = dy.to_phase(random_canonical(n, rng))
        rep = bk.flow_commutation_check(x, t=0.3, h=1e-4)
        details[f"discrepancy_n{n}"] = rep.discrepancy
        if rep.discrepancy > 1e-6:
            return _fail({"n": n, "which": "commutation"}, details=details)
    x = dy.to_phase(random_canonical(2, rng))
    if bk.flow_commutation_check(x, t=0.0, h=1e-3).discrepancy != 0.0:
        return _fail({"which": "t=0"}, details=details)
    return _passed(2, details=details)


@_identity("adjoint-invariance", "rational")
def check_adjoint_invariance(cfg: VerifySuiteConfig, rng: random.Random) -> tuple:
    """Conjugation by G_plus preserves the first variety, by G_minus the second.

    g L g^{-1} is (g^T)^{-1} L^T g^T transposed: one linalg.conjugate, so
    one elimination on g^T, and no inverse of g.
    """
    for n in range(1, min(cfg.n_max, 3) + 1):
        L = lx.build_lax(random_point(n, rng))
        base = lx.gamma_membership(L)
        if not base.in_gamma:
            return _fail({"n": n, "which": "base point"})
        Lt = L.transpose()
        for t in range(20):
            gp = random_g_plus(n, rng)
            if not lx.gamma_membership(conjugate(gp.transpose(), Lt).transpose()).in_gamma1:
                return _fail({"n": n, "which": "G_plus"}, t)
            gm = random_g_minus(n, rng)
            if not lx.gamma_membership(conjugate(gm.transpose(), Lt).transpose()).in_gamma2:
                return _fail({"n": n, "which": "G_minus"}, t)
    return _passed(20 * min(cfg.n_max, 3))


def identity_rng(seed: int, index: int) -> random.Random:
    return random.Random(seed * 1_000_003 + index)


def run_suite(cfg: VerifySuiteConfig) -> list[IdentityResult]:
    """Run the selected identities in fixed order with per-identity RNG streams."""
    results = []
    for idx, (name, mode, fn) in enumerate(IDENTITY_CHECKS):
        if cfg.mode != "both" and mode != cfg.mode:
            continue
        results.append(fn(cfg, identity_rng(cfg.seed, idx)))
    return results
