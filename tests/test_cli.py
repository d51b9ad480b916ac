import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import toda_bn
from toda_bn import cli
from toda_bn import conserved as cv
from toda_bn.cli import main
from toda_bn.dynamics import Z_WINDOW

WORKED = '{"n": 2, "z": ["2", "3"], "Q": ["1/2", "1/5"]}'


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_conserved_worked_point(capsys):
    code, out, _ = run(capsys, "conserved", "--point", WORKED)
    assert code == 0
    payload = json.loads(out)
    assert payload["F"] == ["1", "61/15", "223/30", "61/15", "1"]
    assert payload["routes_agree"] is True


@pytest.mark.parametrize("point", [
    '{"n": 2, "z": [2, 3], "Q": [0.5, 0.2]}',
    '{"n": 8, "z": [1.5, 0.5, 2, 0.75, 1.25, 3, 0.6, 1.1], '
    '"Q": [-0.3, 0.2, -0.7, 0.4, -0.1, 0.25, -0.5, 0.35]}',
    '{"n": 7, "z": ["2", "3", "1/2", "5/3", "-1", "7", "2/9"], '
    '"Q": ["1/2", "1/5", "3", "-2/7", "1/3", "4", "1/11"]}',
], ids=["float-n2", "float-n8", "exact-n7"])
def test_conserved_routes_agree_at_every_rank_and_mode(capsys, point):
    code, out, _ = run(capsys, "conserved", "--point", point)
    assert code == 0
    payload = json.loads(out)
    assert len(payload["F"]) == 2 * json.loads(point)["n"] + 1
    assert payload["routes_agree"] is True


@pytest.mark.parametrize("point,rel,agree", [
    (WORKED, Fraction(1, 10 ** 30), False),
    ('{"n": 2, "z": [2, 3], "Q": [0.5, 0.2]}', 1e-9, False),
    ('{"n": 2, "z": [2, 3], "Q": [0.5, 0.2]}', 1e-12, True),
])
def test_conserved_routes_agree_is_a_real_check(capsys, monkeypatch, point, rel, agree):
    # a chain-sum pass that is off in one F_i by `rel` of it
    chain_sums = cv._chain_sums

    def off(*args):
        f = list(chain_sums(*args))
        f[1] += rel * f[1]
        return tuple(f)

    monkeypatch.setattr(cv, "_chain_sums", off)
    code, out, _ = run(capsys, "conserved", "--point", point)
    assert code == 0
    assert json.loads(out)["routes_agree"] is agree


def test_lax_output(capsys):
    code, out, _ = run(capsys, "lax", "--point", WORKED, "--n", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["in_gamma"] is True
    assert payload["L"][0][0] == "1"
    assert payload["L"][1][0] == "-12/5"


def test_malformed_json_exits_2(capsys):
    code, _, err = run(capsys, "lax", "--point", "{not json")
    assert code == 2
    assert "JSON" in err or "error" in err


def test_rank_mismatch_exits_2(capsys):
    code, _, _ = run(capsys, "lax", "--point", WORKED, "--n", "3")
    assert code == 2


def test_missing_file_exits_2(capsys):
    code, _, _ = run(capsys, "conserved", "--point", "/nonexistent/file.json")
    assert code == 2


def test_backlund_both_routes(capsys):
    code, out, _ = run(capsys, "backlund", "--point", WORKED,
                       "--steps", "2", "--route", "both")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["steps"]) == 3
    assert all(s["routes_agree"] for s in payload["steps"])
    first = payload["steps"][1]["map"]["point"]
    assert first["z"] == ["6", "-5"]
    assert all(s["map"]["F"] == payload["steps"][0]["map"]["F"]
               for s in payload["steps"])


def test_simulate_csv(capsys):
    code, out, _ = run(capsys, "simulate", "--init", "0.1,0.2,0.0,-0.1",
                       "--T", "0.01", "--h", "1e-3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,z_1,z_2,Q_1,Q_2,drift"
    assert len(lines) == 12  # header + 11 states
    assert float(lines[1].split(",")[0]) == 0.0
    assert float(lines[-1].split(",")[-1]) < 1e-10


def test_canonical_both_directions(capsys):
    code, out, _ = run(capsys, "canonical", "--point", '{"q": [0, 0], "p": [0, 0]}')
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["H_phase"] - payload["H_canonical"]) < 1e-12
    phase = json.dumps(payload["point"])
    code, out, _ = run(capsys, "canonical", "--point", phase)
    assert code == 0
    back = json.loads(out)
    assert max(abs(v) for v in back["q"] + back["p"]) < 1e-12


def test_verify_small_and_deterministic(capsys):
    args = ["verify", "--seed", "11", "--n-max", "2", "--trials", "3",
            "--mode", "rational"]
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    lines = out1.strip().splitlines()
    summary = json.loads(lines[-1])
    assert summary["overall"] == "pass"
    assert summary["failed"] == []
    names = [json.loads(l)["identity"] for l in lines[:-1]]
    assert "conserved-route-equivalence" in names
    assert all(json.loads(l)["passed"] for l in lines[:-1])


def test_verify_seed_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv("TODA_BN_SEED", "23")
    code, out, _ = run(capsys, "verify", "--n-max", "1", "--trials", "2",
                       "--mode", "rational")
    assert code == 0
    summary = json.loads(out.strip().splitlines()[-1])
    assert summary["seed"] == 23


def test_verify_out_file(capsys, tmp_path):
    target = tmp_path / "report.jsonl"
    code, out, _ = run(capsys, "verify", "--seed", "3", "--n-max", "1",
                       "--trials", "2", "--mode", "rational", "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text().splitlines()[-1])["overall"] == "pass"


def test_bad_flags_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--T", "1.0"])  # missing --init
    assert exc.value.code == 2


def test_bad_trials_exit_2(capsys):
    code, _, err = run(capsys, "verify", "--trials", "0")
    assert code == 2
    assert "trials" in err


def test_verify_past_the_path_route_cap_exits_2_with_one_line(capsys, monkeypatch):
    # conserved-route-equivalence compares the path formula's two modes, so
    # f_poly raises the route's line at n = 7 before expanding anything
    expand = cv._f_polys

    def capped(n, mode):
        assert n <= cv.MAX_SYMBOLIC_RANK, f"f_poly expanded at n = {n}"
        return expand(n, mode)

    monkeypatch.setattr(cv, "_f_polys", capped)
    code, out, err = run(capsys, "verify", "--mode", "rational", "--n-max", "7",
                         "--trials", "1")
    assert code == 2
    assert out == ""
    assert err == "error: path-formula route is capped at n <= 6\n"


# -- the one point contract -----------------------------------------------------

BAD_POINTS = [
    ("lax", '{"n": 1, "z": [NaN], "Q": [0.5]}'),
    ("lax", '{"n": 1, "z": [Infinity], "Q": [0.5]}'),
    ("lax", '{"n": 2.7, "z": ["2", "3"], "Q": ["1/2", "1/5"]}'),
    ("lax", '{"n": true, "z": ["2"], "Q": ["1/2"]}'),
    ("conserved", '{"n": 1, "z": 5, "Q": [0.5]}'),
    ("canonical", '{"n": 1, "z": ["1/0"], "Q": ["0"]}'),
    ("backlund", '{"n": 2, "z": ["2", "3"], "Q": ["1/2"]}'),
    ("canonical", '{"q": [1000.0], "p": [0.0]}'),
    ("canonical", '{"q": ["1"], "p": [0.0]}'),
    ("lax", '{"q": [0.1], "p": 5}'),
    ("lax", '[1, 2]'),
    ("conserved", "0.1,0.2,0.3"),
    ("conserved", "0.1,abc"),
    ("canonical", '{"n": 1, "z": ["1e400"], "Q": ["-1"]}'),
    ("lax", '{"n": 2, "z": [1e200, 1e200], "Q": [1e200, 1]}'),
    ("conserved", '{"n": 2, "z": [1e200, 1e200], "Q": [1e200, 1]}'),
    ("backlund", '{"n": 2, "z": [1e300, 1], "Q": [1e300, 2]}'),
    # far outside the |z| window: products of the 1/z_i in L overflow
    ("lax", '{"n": 3, "z": [1e-200, 1e-200, 3], "Q": [0.5, 0.2, 0.1]}'),
    ("conserved", '{"n": 3, "z": [1e-200, 1e-200, 3], "Q": [0.5, 0.2, 0.1]}'),
]


@pytest.mark.parametrize("command,point", BAD_POINTS)
def test_bad_point_exits_2_with_one_line(capsys, command, point):
    code, out, err = run(capsys, command, "--point", point)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


# Float points whose product Q_k z_k overflows, and the error naming it.
OVERFLOW_POINTS = [
    ('{"n": 2, "z": [1e200, 1e200], "Q": [1e200, 1]}', "Q_1 z_1 overflows: 1e+200 * 1e+200"),
    ('{"n": 2, "z": [1e300, 1], "Q": [1e300, 2]}', "Q_1 z_1 overflows: 1e+300 * 1e+300"),
    ('{"n": 2, "z": [1, 1e300], "Q": [2, 1e300]}', "Q_2 z_2 overflows: 1e+300 * 1e+300"),
]
OVERFLOW_IDS = ["Q1z1-1e400", "Q1z1-1e600", "Q2z2-1e600"]


@pytest.mark.parametrize("route", ["map", "conjugate", "both"])
@pytest.mark.parametrize("point,message", OVERFLOW_POINTS, ids=OVERFLOW_IDS)
def test_backlund_overflow_exits_2_on_every_route(capsys, point, message, route):
    code, out, err = run(capsys, "backlund", "--route", route, "--point", point)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_backlund_conjugate_names_a_non_finite_k(capsys):
    code, out, err = run(capsys, "backlund", "--route", "conjugate", "--point",
                         '{"n": 2, "z": [1e200, 1e-200], "Q": [0.5, 0.5]}')
    assert code == 2
    assert out == ""
    assert err == "error: non-finite entry nan at row 1, column 0\n"


def test_backlund_map_names_a_square_that_underflows(capsys):
    # the point's conserved quantities are finite, so the map is what stops
    code, out, err = run(capsys, "backlund", "--route", "map", "--point",
                         '{"n": 2, "z": [1.0, 1e-200], "Q": [1e-210, 0.5]}')
    assert code == 2
    assert out == ""
    assert err == "error: z_2 ** 2 underflows to 0.0: 1e-200\n"


@pytest.mark.parametrize("command", ["lax", "conserved"])
@pytest.mark.parametrize("point,message", OVERFLOW_POINTS, ids=OVERFLOW_IDS)
def test_overflowing_product_is_named(capsys, point, message, command):
    code, out, err = run(capsys, command, "--point", point)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


# A float point inside the |z| window whose factor C is badly scaled, and the
# same point as rationals.  L is built in closed form, so no pivot threshold
# rejects the float point.
TINY_Z = '{"n": 2, "z": [1e-12, 3], "Q": [0.5, 0.2]}'
TINY_Z_EXACT = '{"n": 2, "z": ["1e-12", "3"], "Q": ["0.5", "0.2"]}'


def assert_f_near_exact(got, exact):
    assert len(got) == len(exact)
    for g, e in zip(got, exact):
        assert abs(Fraction(g) - Fraction(e)) <= 1e-12 * abs(Fraction(e)), (g, e)


def test_conserved_at_a_tiny_z(capsys):
    code, out, _ = run(capsys, "conserved", "--point", TINY_Z_EXACT)
    assert code == 0
    exact = json.loads(out)["F"]
    code, out, _ = run(capsys, "conserved", "--point", TINY_Z)
    assert code == 0
    payload = json.loads(out)
    assert payload["routes_agree"] is True
    assert_f_near_exact(payload["F"], exact)


def test_backlund_map_at_a_tiny_z(capsys):
    code, out, _ = run(capsys, "conserved", "--point", TINY_Z_EXACT)
    exact = json.loads(out)["F"]
    code, out, _ = run(capsys, "backlund", "--route", "map", "--steps", "2",
                       "--point", TINY_Z)
    assert code == 0
    steps = json.loads(out)["steps"]
    assert len(steps) == 3
    for entry in steps:  # the map conserves F
        assert_f_near_exact(entry["map"]["F"], exact)


def test_bad_init_exits_2(capsys):
    code, _, err = run(capsys, "simulate", "--init", '{"q": [NaN], "p": [0.0]}', "--T", "0.1")
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("flags", [
    ("--init", '{"n": 1, "z": ["1e400"], "Q": ["0"]}', "--T", "0.01"),
    ("--init", "0.1,0.2", "--T", "inf"),
    ("--init", "0.1,0.2", "--T", "1", "--h", "nan"),
    ("--init", "0.1,0.2", "--T", "-1"),
    ("--init", "0.1,0.2", "--T", "1", "--h", "0.3"),
    ("--init", "0.1,0.2", "--T", "1e300", "--h", "1e-300"),
    ("--init", '{"n": 1, "z": [1e-320], "Q": [0.5]}', "--T", "0.001", "--h", "0.001"),
], ids=["overflow", "T-inf", "h-nan", "T-negative", "T-not-multiple-of-h", "T/h-inf",
        "init-outside-z-window"])
def test_simulate_bad_range_exits_2_with_one_line(capsys, flags):
    code, out, err = run(capsys, "simulate", *flags)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("flags,message", [
    (("--T", "inf"), "--T and --h must be finite"),
    (("--T", "1", "--h", "0"), "--h must be positive"),
    (("--T", "-1"), "--T must be >= 0"),
    (("--T", "1", "--h", "0.3"), "--T 1.0 is not a whole number of --h 0.3 steps"),
])
def test_simulate_T_h_messages(capsys, flags, message):
    code, _, err = run(capsys, "simulate", "--init", "0.1,0.2", *flags)
    assert code == 2
    assert err == f"error: {message}\n"


def test_simulate_ends_at_T(capsys):
    code, out, _ = run(capsys, "simulate", "--init", "0.1,0.2", "--T", "0.9", "--h", "0.3")
    assert code == 0
    assert out.strip().splitlines()[-1].startswith("0.8999999999999999,")
    code, out, _ = run(capsys, "simulate", "--init", "0.1,0.2", "--T", "0")
    assert code == 0 and len(out.strip().splitlines()) == 2


def test_missing_file_is_reported_unreadable(capsys):
    for path in ("/nonexistent/file.json", "no-such-point"):
        code, _, err = run(capsys, "lax", "--point", path)
        assert code == 2
        assert err.startswith(f"error: cannot read {path!r}")


def test_every_point_flag_reads_every_form(capsys, tmp_path):
    as_json = '{"q": [0.1, -0.2], "p": [0.3, 0.0]}'
    target = tmp_path / "point.json"
    target.write_text(as_json)
    outputs = [run(capsys, "canonical", "--point", arg) for arg in
               (as_json, str(target), "0.1,-0.2,0.3,0.0")]
    assert all(code == 0 for code, _, _ in outputs)
    assert len({out for _, out, _ in outputs}) == 1
    point = json.dumps(json.loads(outputs[0][1])["point"])
    for command in ("lax", "conserved", "backlund"):
        assert run(capsys, command, "--point", as_json)[1] == \
            run(capsys, command, "--point", point)[1]
    code, _, _ = run(capsys, "canonical", "--point", as_json, "--n", "3")
    assert code == 2


def test_verify_g_minus_redraw_seed(capsys):
    # "G_minus fixed" draws a G_minus element here whose upper-left block has
    # a vanishing leading minor; it factors without a redraw
    code, out, _ = run(capsys, "verify", "--mode", "rational", "--seed", "430260648",
                       "--trials", "5")
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert lines[-1]["overall"] == "pass"
    split = next(r for r in lines if r.get("identity") == "projection-splitting-factorization")
    assert split["resamples"] == 0


def test_verify_report_golden(capsys):
    # the rational report is platform independent; this digest pins its bytes
    code, out, _ = run(capsys, "verify", "--mode", "rational", "--seed", "7",
                       "--n-max", "3", "--trials", "3")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "6559814895a63af8b9769a47ee9eb627a8c8c631732f9461ba5f337e628eb726"


def test_verify_report_golden_at_n4(capsys):
    # n = 4 is where the exact Laurent evaluation and the dual pass of
    # lax-hamilton-equivalence do most of their work
    code, out, _ = run(capsys, "verify", "--mode", "rational", "--seed", "7",
                       "--n-max", "4", "--trials", "5")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "bcba3451adf8fd53b28d869ef522dd78739475274c687e08bc38553fa052b685"


def test_verify_float_report_golden(capsys):
    # pins the float report, RK4 flows included, on every Python version
    code, out, _ = run(capsys, "verify", "--mode", "float", "--seed", "7",
                       "--n-max", "3", "--trials", "3")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "d7922d5bdb37426063123c839d5b378103f1037d33f5db5273c81bec8f56a235"


def test_verify_float_report_golden_at_the_defaults(capsys):
    # the default float report: seed 7, n-max 4, 50 trials
    code, out, _ = run(capsys, "verify", "--mode", "float")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "45b0535e1570871f32da149b5f7d8b97b58da66ca1fa7d35322c169284a448b1"


# simulate CSVs, drift column included, in the benchmark's argv form:
# h = 2^-10, so every t = k h is exact in binary64 and T is a whole number of
# steps.  The drift column compares the chain-sum pass at each state with F(0)
# from LaurentPoly.evaluate for n <= 6 and from the float Hessenberg char_poly
# at n = 8.
FLOW_H = 2.0 ** -10
SIMULATE_GOLDEN = {
    3: ({"q": [0.31, -0.52, 0.17], "p": [0.12, -0.43, 0.64]}, 256,
        "45df05636b892d275c4024107c2c6b6c30f8efb1f78fbb03d59efb7db5c9cb33"),
    6: ({"q": [0.21, -0.35, 0.48, -0.12, 0.66, -0.27],
         "p": [-0.14, 0.39, 0.05, -0.58, 0.23, 0.41]}, 8,
        "6ce26f52ce30fb7a69c7c230bca5abad8f821b4042c58e995b211e199985df24"),
    8: ({"q": [0.44, -0.19, 0.27, -0.63, 0.08, 0.35, -0.41, 0.16],
         "p": [0.22, -0.31, 0.57, 0.09, -0.46, 0.13, -0.05, 0.38]}, 16,
        "13f7caacd08441e95fea6c7778ce214571a00ffe2358e77a3c5007c8b6832d55"),
}


def simulate_argv(n):
    init, steps, _ = SIMULATE_GOLDEN[n]
    return ["simulate", "--init", json.dumps(init),
            "--T", repr(steps * FLOW_H), "--h", repr(FLOW_H)]


@pytest.mark.parametrize("n", sorted(SIMULATE_GOLDEN))
def test_simulate_csv_golden(capsys, n):
    code, out, _ = run(capsys, *simulate_argv(n))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SIMULATE_GOLDEN[n][2]


def test_one_parser_serves_every_call_in_a_process(capsys):
    assert cli.build_parser() is cli.build_parser()
    code, out, _ = run(capsys, *simulate_argv(3))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SIMULATE_GOLDEN[3][2]
    with pytest.raises(SystemExit) as exc:
        main(simulate_argv(3)[:3])  # no --T
    assert exc.value.code == 2
    assert "--T" in capsys.readouterr().err
    assert run(capsys, "verify", "--mode", "float", "--n-max", "1", "--trials", "1")[0] == 0
    assert run(capsys, "conserved", "--point", WORKED)[0] == 0
    code, out, _ = run(capsys, *simulate_argv(3))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SIMULATE_GOLDEN[3][2]


def test_simulate_drift_at_n8_within_bound(capsys):
    # the drift column is integrator error plus the gap between the chain-sum
    # pass and char_poly's F(0)
    code, out, _ = run(capsys, *simulate_argv(8))
    assert code == 0
    drifts = [float(line.rsplit(",", 1)[1]) for line in out.splitlines()[1:]]
    assert len(drifts) == SIMULATE_GOLDEN[8][1] + 1
    assert max(drifts) <= 1e-8


def test_package_runs_without_numpy_and_scipy():
    # a None entry in sys.modules makes any import of numpy or scipy raise
    # ImportError; float verify reaches mat_exp through flow-conservation
    code = ("import json, sys\n"
            "sys.modules['numpy'] = sys.modules['scipy'] = None\n"
            "from toda_bn.cli import main\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    if main(argv) != 0:\n"
            "        sys.exit(f'{argv} failed')\n")
    argvs = [simulate_argv(3), simulate_argv(8),
             ["verify", "--mode", "float", "--n-max", "2", "--trials", "1"]]
    env = dict(os.environ, PYTHONPATH=str(Path(toda_bn.__file__).resolve().parent.parent))
    done = subprocess.run([sys.executable, "-c", code, json.dumps(argvs)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr


# -- arbitrary points -------------------------------------------------------------
#
# Every command at any point either works or exits 2 with one line: floats
# log-uniform in magnitude over the whole float range, mixed with the edges,
# and small rationals.


def run_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def reject_constant(name):
    raise ValueError(f"{name} is not JSON")


LOG_UNIFORM = st.builds(lambda sign, e: sign * 10.0 ** e,
                        st.sampled_from([1.0, -1.0]), st.floats(-300, 308))
EDGES = st.sampled_from([0.0, -0.0, 1.0, -1.0, *Z_WINDOW, *(-v for v in Z_WINDOW)])
SMALL_RATIONALS = st.builds(lambda p, q: f"{p}/{q}", st.integers(-9, 9), st.integers(1, 9))


@st.composite
def any_points(draw):
    n = draw(st.integers(1, 8))
    scalar = draw(st.sampled_from([LOG_UNIFORM | EDGES, SMALL_RATIONALS]))
    z, Q = (draw(st.lists(scalar, min_size=n, max_size=n)) for _ in "zQ")
    return json.dumps({"n": n, "z": z, "Q": Q})


@settings(max_examples=40, deadline=None)
@given(any_points(), st.integers(0, 3))
# an overflow in the drift's F(0)
@example('{"n":3,"z":[1e-12,950.0001090156331,-1.0],"Q":[2.0,-1e+308,-1.337018070991546]}', 1)
# a z read off L+ underflows to 0.0
@example('{"n":3,"z":[1e-300,-0.875,1e12],"Q":[0.0,-1.2387329333021655,2.605562931980854]}', 2)
# a z_i ** 2 of the map underflows to 0.0
@example('{"n":8,"z":[-6900969.7564409245,-1.0401722287739625,-0.3645876930233589,1e-300,'
         '-1e+150,-1e-12,2157.09514056933,1.408404730007256],"Q":[-287.02590252045593,'
         '0.5522197520706897,0.0,0.8839691432957539,4964717.404354432,-1e-12,'
         '-0.00017466560688266422,-1e-13]}', 3)
def test_every_command_works_or_exits_2_at_any_point(point, steps):
    argvs = [["lax", "--point", point], ["conserved", "--point", point],
             *(["backlund", "--route", route, "--steps", str(steps), "--point", point]
               for route in ("map", "conjugate", "both")),
             ["canonical", "--point", point],
             ["simulate", "--T", "0.004", "--h", "0.001", "--init", point]]
    for argv in argvs:
        code, out, err = run_quietly(argv)
        assert code in (0, 2), (argv, code, err)
        if code == 2:
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        elif argv[0] == "simulate":
            header, *rows = [line.split(",") for line in out.splitlines()]
            assert len(rows) == 5
            assert all(len(row) == len(header) for row in rows)
            assert all(math.isfinite(float(v)) for row in rows for v in row), (argv, out)
        else:
            json.loads(out, parse_constant=reject_constant)
