"""Acceptance suite: one test per top-level criterion, each at its stated
tolerance (exact equality wherever the arithmetic is rational).  Every test
prints a single PASS line on success; a failure carries the counterexample
in the assertion message."""

from fractions import Fraction

from toda_bn.verify import (
    IDENTITY_CHECKS,
    VerifySuiteConfig,
    check_adjoint_invariance,
    check_path_weight_factorization,
    check_backlund_commutation,
    check_backlund_exact,
    check_canonical_chart,
    check_flow_conservation,
    check_ideal_generator,
    check_lax_hamilton,
    check_lax_printed_n2,
    check_palindromic_symmetry,
    check_parameter_roundtrip,
    check_poisson,
    check_printed_f1_f2,
    check_q_zero_reduction,
    check_route_equivalence,
    check_splitting,
    identity_rng,
)

SEED = 7


def _run(check, criterion, label, **cfg_kwargs):
    cfg = VerifySuiteConfig(seed=SEED, **cfg_kwargs)
    idx = [fn for _, _, fn in IDENTITY_CHECKS].index(check)
    result = check(cfg, identity_rng(SEED, idx))
    status = "PASS" if result.passed else "FAIL"
    print(f"ACCEPT {criterion:02d} {status} - {label} {result.details or ''}")
    assert result.passed, (criterion, label, result.counterexample, result.details)
    return result


def test_criterion_01_printed_lax_n2():
    _run(check_lax_printed_n2, 1,
         "all 16 entries of the n=2 Lax matrix, 100 random rational points, exact",
         n_max=2, trials=100)


def test_criterion_02_printed_f1_f2():
    _run(check_printed_f1_f2, 2,
         "printed F1 (n<=4) and F2 (n=2) match the path formula structurally",
         n_max=4)


def test_criterion_03_route_equivalence():
    _run(check_route_equivalence, 3,
         "char-poly F_i == path formula == pruned formula, n=1..4, 50 points, all i",
         n_max=4, trials=50)


def test_criterion_04_palindromic_symmetry():
    r = _run(check_palindromic_symmetry, 4,
             "F_i = F_(2n-i), F_0 = F_2n = 1, exact, n<=4 (shifted index recorded)",
             n_max=4, trials=50)
    # the shifted-index variant F_i = F_(2n+1-i) is recorded, not asserted;
    # it is expected to fail pointwise
    assert r.details["shifted_index_identity_pointwise"] is False


def test_criterion_05_q_zero_reduction():
    _run(check_q_zero_reduction, 5,
         "Q=0 reduction F_i = e_i(z, 1/z), structural, n<=4", n_max=4)
    _run(check_ideal_generator, 5,
         "ideal generators vanish at Q=0, z_j = exp(eps_j), within 16 n u e_i",
         n_max=4)


def test_criterion_06_factorization_oracle():
    _run(check_path_weight_factorization, 6,
         "C = Z D Lam D^-1, three-factor M, signed-weight entries, spectrum: "
         "exact, n<=3, 25 points with all Q_i != 0",
         n_max=3, trials=25)


def test_criterion_07_parameter_roundtrip():
    _run(check_parameter_roundtrip, 7,
         "parameter recovery inverts the Lax map exactly, n<=5, 50 points",
         n_max=5, trials=50)


def test_criterion_08_splitting_and_factorization():
    _run(check_splitting, 8,
         "projections, memberships, commutator closure, unique K R factorization, n<=4",
         n_max=4, trials=50)


def test_criterion_09_lax_hamilton_equivalence():
    _run(check_lax_hamilton, 9,
         "chain rule along the flow equals [L, pi+(L)] exactly, n<=4, 50 points",
         n_max=4, trials=50)


def test_criterion_10_poisson_layer():
    _run(check_poisson, 10,
         "antisymmetry, Jacobi, and {u, H} = hamilton_rhs, exact",
         n_max=4, trials=50)
    _run(check_canonical_chart, 10,
         "canonical chart: bracket table 1e-10, H pullback 1e-12, spot 4+2*sqrt(2)",
         n_max=4)


def test_criterion_11_flow_conservation():
    r = _run(check_flow_conservation, 11,
             "RK4 n=3 T=1 h=1e-3 drift <= 1e-8 with >= 8x reduction on halving; "
             "factorization flow vs RK4 1e-6; conjugation routes 1e-9",
             n_max=3)
    assert r.details["drift_h"] <= 1e-8
    assert r.details["drift_h_half"] * 8 <= r.details["drift_h"]


def test_criterion_12_backlund():
    _run(check_backlund_exact, 12,
         "Backlund two-route exact agreement n<=4, 50 points; printed n=2 map; "
         "worked point z+=(6,-5), Q+=(1/2,6/5), H=61/15; 10 iterations invariant",
         n_max=4, trials=50)
    _run(check_backlund_commutation, 12,
         "Backlund commutes with the flow at t=0.3 within 1e-6 (n=2,3)",
         n_max=3)


def test_criterion_13_adjoint_invariance():
    _run(check_adjoint_invariance, 13,
         "20 random G+/G- conjugations preserve the respective varieties, n<=3",
         n_max=3)


def test_worked_point_values(worked_point):
    """Spot values quoted throughout: F = (1, 61/15, 223/30, 61/15, 1)."""
    from toda_bn import conserved_values

    assert conserved_values(worked_point) == (
        1, Fraction(61, 15), Fraction(223, 30), Fraction(61, 15), 1)
    print("ACCEPT -- PASS - worked-point conserved values")
