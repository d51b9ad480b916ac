"""The mutant table: an identity that passes on a broken package is no oracle.

Each row of MUTANTS is (name, patches, identities that must fail).  A patch
is (module, attribute, mutate): mutate takes the original and returns the
mutant, which replaces the original in every toda_bn module that binds it
(dynamics and backlund import several names).  Each listed identity runs
as `verify --seed 7 --n-max 4 --trials 5` runs it, and passes unpatched:
that run is the control.  The caches are empty before each row, so that
compiled kernels and memoized results come from the patched code.

Equivalent mutant, so no row: reversing ideal_generator's eps, since
e_i(exp(eps), exp(-eps)) is symmetric in the eps.

Cost: about 1 s of tier-1 for the whole file (1.2 s with Python 3.11 on
a shared 2-core Xeon), most of it the float identities' RK4 runs through
freshly compiled kernels.
"""

import sys
from fractions import Fraction

import pytest
from conftest import run_identity

from toda_bn import backlund as bk
from toda_bn import conserved as cv
from toda_bn import dynamics as dy
from toda_bn import lax as lx
from toda_bn import splitting as sp

#: The per-rank caches a patch could hide behind; the compiled kernels are
#: cleared by the fresh_kernels fixture.
CACHES = (cv._interval_table, cv.f_poly, cv._f_polys, cv._conserved_values_exact,
          lx._build_lax_exact)


def _scale_q(f):
    def mutant(x):
        y = f(x)
        return lx.PhasePoint(y.n, y.z, tuple((1 + Fraction(i, 7)) * q for i, q in enumerate(y.Q, 1)))
    return mutant


def _scale_dq1(f):
    def mutant(n, z, Q):
        r = f(n, z, Q)
        return (*r[:n], r[n] * 8 / 7, *r[n + 1:])
    return mutant


def _flip_q1_z2(f):
    def mutant(n, z, Q, zero):
        rows = f(n, z, Q, zero)
        if n > 1:
            rows[0][n + 1], rows[n + 1][0] = -rows[0][n + 1], -rows[n + 1][0]
        return rows
    return mutant


def _midpoint(f):
    def mutant(n, state, h):
        k1 = dy._rates(n, state[:n], state[n:])
        mid = [v + 0.5 * h * k for v, k in zip(state, k1)]
        k2 = dy._rates(n, mid[:n], mid[n:])
        return tuple(v + h * k for v, k in zip(state, k2))
    return mutant


def _perturb_f1(f):
    def mutant(x):
        F = f(x)
        return (F[0], F[1] + x.Q[0] ** 2 * x.Q[-1] / 1000, *F[2:])
    return mutant


def _flip_a_weight(f):
    def mutant(n, improved):
        rows = f(n, improved)
        y, sign, factors, forces = rows[0][1]
        return ((rows[0][0], (y, -sign, factors, forces), *rows[0][2:]), *rows[1:])
    return mutant


def _negate_a_pruned_weight(f):
    # (1, 1bar), which only the unpruned table holds at n > 1: the improved
    # mode reads the other table, so the two modes no longer expand alike
    def mutant(n, improved):
        rows = f(n, improved)
        if improved or n == 1:
            return rows
        *head, (y, sign, factors, forces) = rows[0]
        return ((*head, (y, -sign, factors, forces)), *rows[1:])
    return mutant


def _double_qn_corner(f):
    def mutant(n, rows, q_n, one, zero):
        return f(n, rows, 2 * q_n, one, zero)
    return mutant


def _both_routes(mutate):
    return [(bk, "backlund_map", mutate), (bk, "backlund_conjugate", mutate)]


MUTANTS = [
    ("exact_flow at -t", [(dy, "exact_flow", lambda f: lambda x, t: f(x, -t))],
     ["flow-conservation"]),
    ("map then Q_i -> (1 + i/7) Q_i", [(bk, "backlund_map", _scale_q)],
     ["backlund-exact", "backlund-flow-commutation"]),
    ("both routes the identity", _both_routes(lambda f: lambda x: x),
     ["backlund-exact"]),
    ("both routes two steps", _both_routes(lambda f: lambda x: f(f(x))),
     ["backlund-exact"]),
    ("dQ_1 scaled by 8/7", [(dy, "_rates", _scale_dq1)],
     ["lax-hamilton-equivalence", "poisson-structure-exact", "flow-conservation",
      "backlund-flow-commutation"]),
    ("every rate negated", [(dy, "_rates", lambda f: lambda n, z, Q: tuple(-r for r in f(n, z, Q)))],
     ["lax-hamilton-equivalence", "poisson-structure-exact", "flow-conservation"]),
    ("{Q_1, z_2} sign flipped", [(dy, "_poisson_rows", _flip_q1_z2)],
     ["poisson-structure-exact", "canonical-chart"]),
    ("pi_plus and pi_minus swapped",
     [(sp, "project", lambda f: lambda X: sp.SplitPair(*f(X)[::-1]))],
     ["projection-splitting-factorization", "lax-hamilton-equivalence"]),
    ("hamiltonian plus 1", [(dy, "hamiltonian", lambda f: lambda x: f(x) + 1)],
     ["canonical-chart", "backlund-exact"]),
    ("flow_conjugations at -t",
     [(dy, "flow_conjugations", lambda f: lambda x, t: f(x, -t))],
     ["flow-conservation"]),
    ("RK4 replaced by the midpoint rule", [(dy, "_rk4_step", _midpoint)],
     ["flow-conservation", "backlund-flow-commutation"]),
    ("F_1 plus Q_1^2 Q_n / 1000", [(cv, "conserved_values", _perturb_f1)],
     ["conserved-route-equivalence", "palindromic-symmetry",
      "ideal-generator-at-exponentials", "backlund-exact"]),
    ("one interval weight's sign flipped", [(cv, "_interval_table", _flip_a_weight)],
     ["printed-f1-f2", "conserved-route-equivalence", "ideal-generator-at-exponentials",
      "signed-path-weight-factorization", "poisson-structure-exact", "flow-conservation"]),
    ("the unpruned table's (1, 1bar) weight negated",
     [(cv, "_interval_table", _negate_a_pruned_weight)],
     ["printed-f1-f2", "conserved-route-equivalence", "signed-path-weight-factorization",
      "poisson-structure-exact", "flow-conservation"]),
    ("Q_n corner of the Gamma_2 read doubled", [(lx, "_inverse_by_gamma2", _double_qn_corner)],
     ["conserved-route-equivalence", "palindromic-symmetry",
      "ideal-generator-at-exponentials", "backlund-exact"]),
    ("chart exponentials squared",
     [(dy, "_chart_exponentials", lambda f: lambda q: [e * e for e in f(q)])],
     ["canonical-chart", "flow-conservation"]),
]


@pytest.fixture
def fresh_caches(fresh_kernels):
    for cache in CACHES:
        cache.cache_clear()
    yield
    for cache in CACHES:
        cache.cache_clear()


def _patch_everywhere(monkeypatch, module, attr, mutate):
    original = getattr(module, attr)
    mutant = mutate(original)
    for name, m in list(sys.modules.items()):
        if name == "toda_bn" or name.startswith("toda_bn."):
            for key, value in list(vars(m).items()):
                if value is original:
                    monkeypatch.setattr(m, key, mutant)


def test_unmutated_package_passes_every_listed_identity(fresh_caches):
    # the control: each identity of the table passes before any patch
    for identity in dict.fromkeys(i for *_, identities in MUTANTS for i in identities):
        assert run_identity(identity).passed, identity


@pytest.mark.parametrize("name, patches, identities", MUTANTS, ids=[row[0] for row in MUTANTS])
def test_mutant_fails_its_identities(fresh_caches, name, patches, identities):
    with pytest.MonkeyPatch.context() as mp:
        for module, attr, mutate in patches:
            _patch_everywhere(mp, module, attr, mutate)
        for identity in identities:
            assert not run_identity(identity).passed, identity
