import contextlib
import errno
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import golden
import toda_bn
from toda_bn import cli
from toda_bn import conserved as cv
from toda_bn import dynamics as dy
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


def test_simulate_writes_blocks_that_stdout_and_out_agree_on(tmp_path):
    h = 2.0 ** -10
    steps = cli.BLOCK_LINES + 100  # the header and steps + 1 rows fill two blocks
    argv = ["simulate", "--init", "0.1,-0.2", "--T", repr(steps * h), "--h", repr(h)]
    writes = []

    class Recording(io.StringIO):
        def write(self, text):
            writes.append(text)
            return super().write(text)

    with contextlib.redirect_stdout(Recording()):
        assert main(argv) == 0
    assert len(writes) == 2
    assert [text.count("\n") for text in writes] == [cli.BLOCK_LINES, steps + 2 -
                                                      cli.BLOCK_LINES]
    out = tmp_path / "sim.csv"
    assert main([*argv, "--out", str(out)]) == 0
    # the CSV as one string, formatted from the trajectory's views
    traj = dy.integrate(dy.to_phase(dy.CanonicalPoint((0.1,), (-0.2,))), steps * h, h)
    rows = [",".join(map(repr, (t, *y.z, *y.Q, drift)))
            for t, y, drift in zip(traj.times, traj.states, traj.drifts)]
    whole = "\n".join(["t,z_1,Q_1,drift", *rows]) + "\n"
    assert "".join(writes) == whole
    assert out.read_bytes() == whole.encode()


def cli_process(argv, **kwargs):
    """The CLI in a fresh interpreter, as the console script runs it."""
    env = dict(os.environ, PYTHONPATH=str(Path(toda_bn.__file__).resolve().parent.parent))
    return subprocess.Popen([sys.executable, "-m", "toda_bn.cli", *argv], env=env, **kwargs)


def test_out_into_a_missing_directory_exits_2_with_one_line(tmp_path):
    target = tmp_path / "missing" / "f.json"
    proc = cli_process(["conserved", "--point", WORKED, "--out", str(target)],
                       stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 2
    assert out == ""
    assert err.splitlines() == [f"error: cannot write {target}: {os.strerror(errno.ENOENT)}"]
    assert not target.parent.exists()


def test_simulate_into_a_closed_pipe_exits_2_with_one_line():
    # the reader takes one line and closes its end, as `simulate ... | head -1`
    # does; the 10 001 rows outgrow the pipe's buffer, so a write meets the
    # closed end, and no traceback or "Exception ignored" line follows
    init = json.dumps(golden.FLOW_N3)
    proc = cli_process(["simulate", "--init", init, "--T", "10"],
                       stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 2
    assert first == b"t,z_1,z_2,z_3,Q_1,Q_2,Q_3,drift\n"
    assert err.splitlines() == [f"error: cannot write stdout: {os.strerror(errno.EPIPE)}"]


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


@pytest.mark.parametrize("value", ["abc", "", "7.5", "1\n2"])
def test_verify_seed_env_that_is_not_an_integer_exits_2_naming_it(capsys, monkeypatch, value):
    monkeypatch.setenv("TODA_BN_SEED", value)
    code, out, err = run(capsys, "verify", "--n-max", "1", "--trials", "1")
    assert (code, out) == (2, "")
    assert err.splitlines() == [f"error: TODA_BN_SEED is not an integer: {value!r}"]


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
    ("lax", '{"n": "2", "z": ["2", "3"], "Q": ["1/2", "1/5"]}'),
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


# The point classes refuse these points, and _parse_point names the class's error.
REFUSED_POINTS = [
    ('{"n": 2.7, "z": ["2", "3"], "Q": ["1/2", "1/5"]}', "ValueError: rank n must be an integer, got 2.7"),
    ('{"n": 2, "z": [NaN, 1], "Q": [0.5, 0.5]}', "ValueError: coordinates must be finite"),
    ('{"q": [true], "p": [0.0]}', "ModeError: boolean is not a scalar: True"),
    ('{"q": ["1"], "p": [0.0]}', "ModeError: unsupported scalar type: str"),
]


@pytest.mark.parametrize("point,message", REFUSED_POINTS)
def test_refused_point_names_the_error_of_its_class(capsys, point, message):
    assert run(capsys, "lax", "--point", point) == (2, "", f"error: bad point: {message}\n")


def test_degenerate_backlund_point_names_its_vanishing_m_i(capsys):
    # Q_2 = z_3 / z_2 puts the point on the locus M_2 = 0, so step 1 is undefined
    point = '{"n": 3, "z": ["2", "3", "5"], "Q": ["1/2", "5/3", "1/5"]}'
    for route in ("map", "conjugate"):
        assert run(capsys, "backlund", "--route", route, "--point", point) == (
            2, "", "error: DegeneratePointError: step 1: M_2 = 1 - Q_2 z_2 / z_3 vanishes\n")


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
    assert err == "error: non-finite entry nan of K at row 1, column 0\n"


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
    (("--T", "0.001", "--h", "1e-308"),
     "--T 0.001 is 1.0000000000000001e+305 steps of --h 1e-308; the count must be below 2**52"),
])
def test_simulate_T_h_messages(capsys, flags, message):
    code, _, err = run(capsys, "simulate", "--init", "0.1,0.2", *flags)
    assert code == 2
    assert err == f"error: {message}\n"


def test_simulate_past_2_52_steps_exits_2_at_once():
    # from 2^52 on every float is whole, so T/h = 1e305 passed the step test
    # and the run never returned; a fresh process bounds a regression's hang
    proc = cli_process(["simulate", "--init", '{"q":[0,0],"p":[0,0]}', "--T", "0.001",
                        "--h", "1e-308"], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True)
    try:
        out, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert proc.returncode == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: --T 0.001 is ")


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


@pytest.mark.parametrize("name,compute,pinned", golden.CHECKS,
                         ids=[name for name, _, _ in golden.CHECKS])
def test_pinned_digest(monkeypatch, name, compute, pinned):
    # every pinned digest and exit line of tests/golden.py; its rows read the
    # default seed
    monkeypatch.delenv("TODA_BN_SEED", raising=False)
    assert compute() == pinned


def test_every_digest_has_one_home():
    # a digest or an exit line lives in tests/golden.py alone, and
    # test_pinned_digest reaches every check of it: the workflow holds no
    # 64-hex-digit literal and pins no "error: " line, golden.py holds no
    # digest outside its checks, and no other test module repeats a digest
    # or an exit row's line
    hex64 = re.compile(r"\b[0-9a-f]{64}\b")
    tests = Path(__file__).resolve().parent
    workflow = (tests.parent / ".github" / "workflows" / "tier1.yml").read_text()
    assert hex64.findall(workflow) == []
    assert "error: " not in workflow
    pinned = {value for _, _, value in golden.CHECKS}
    digests = {value for value in pinned if not value.startswith("exit ")}
    lines = {value.split(": ", 1)[1] for value in pinned - digests}
    assert lines and all(line.startswith("error: ") for line in lines)
    assert set(hex64.findall((tests / "golden.py").read_text())) == digests
    names = [name for name, _, _ in golden.CHECKS]
    assert len(set(names)) == len(names)
    (mark,) = test_pinned_digest.pytestmark
    assert [name for name, _, _ in mark.args[1]] == names
    for path in tests.glob("*.py"):
        if path.name != "golden.py":
            text = path.read_text()
            assert not set(hex64.findall(text)) & digests, path.name
            assert not [line for line in lines if line in text], path.name


def test_exact_output_past_the_int_digit_limit(capsys):
    # z_1 of 4000 digits gives F_i and a Backlund step past Python's
    # 4300-digit int/str limit; each call lifts it and puts it back.  The
    # limit is read as cli.main reads it, since Pythons before 3.10.7 have none
    read_limit = getattr(sys, "get_int_max_str_digits", lambda: None)
    limit = read_limit()
    point = json.dumps({"n": 2, "z": ["7" * 4000, "3"], "Q": ["1/2", "1/5"]})
    code, out, err = run(capsys, "conserved", "--point", point)
    assert (code, err) == (0, "")
    assert max(len(v) for v in json.loads(out)["F"]) > 4300
    code, out, err = run(capsys, "backlund", "--steps", "1", "--point", point)
    assert (code, err) == (0, "")
    last = json.loads(out)["steps"][-1]["map"]
    code, out, err = run(capsys, "conserved", "--point", json.dumps(last["point"]))
    assert (code, err) == (0, "")
    assert json.loads(out)["F"] == last["F"]
    assert read_limit() == limit


@pytest.mark.parametrize("n", [4, 5, 6])
def test_flow_from_n4_expands_no_path_formula(capsys, monkeypatch, n):
    # integrate takes F(0) from char_poly from n = 4 on, so neither it nor
    # simulate expands the path formula there, not even on the edges of the
    # |z| window; f_poly is patched, not _f_polys, since its cache may hold
    # the rank already
    expand = cv.f_poly

    def capped(m, i, mode="original"):
        assert m <= 3, f"f_poly expanded at n = {m}"
        return expand(m, i, mode)

    monkeypatch.setattr(cv, "f_poly", capped)
    init = {"q": [0.1 * (i - 2) for i in range(n)], "p": [0.15 * (3 - i) for i in range(n)]}
    x0 = dy.to_phase(dy.CanonicalPoint(init["q"], init["p"]))
    assert len(dy.integrate(x0, T=4 * golden.FLOW_H, h=golden.FLOW_H).drifts) == 5
    code, out, err = run(capsys, "simulate", "--init", json.dumps(init),
                         "--T", repr(4 * golden.FLOW_H), "--h", repr(golden.FLOW_H))
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == 6
    Q = [(-0.5, 0.25)[i % 2] for i in range(n)]
    for k in range(2 ** n):
        z = [Z_WINDOW[k >> i & 1] for i in range(n)]
        assert dy.integrate(toda_bn.PhasePoint(n, z, Q), T=0.0).drifts == (0.0,)
        point = json.dumps({"n": n, "z": z, "Q": Q})
        code, out, err = run(capsys, "simulate", "--init", point, "--T", "0")
        assert (code, err) == (0, "")
        _, row = out.splitlines()
        assert row.rsplit(",", 1)[1] == "0.0" and "nan" not in row


def test_one_parser_serves_every_call_in_a_process(capsys):
    assert cli.build_parser() is cli.build_parser()
    argv, digest = golden.CLI_GOLDEN["simulate-n3"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    with pytest.raises(SystemExit) as exc:
        main(list(argv[:3]))  # no --T
    assert exc.value.code == 2
    assert "--T" in capsys.readouterr().err
    assert run(capsys, "verify", "--mode", "float", "--n-max", "1", "--trials", "1")[0] == 0
    assert run(capsys, "conserved", "--point", WORKED)[0] == 0
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_simulate_drift_at_n8_within_bound(capsys):
    # the drift column is integrator error plus the gap between the chain-sum
    # pass and char_poly's F(0)
    code, out, _ = run(capsys, *golden.CLI_GOLDEN["simulate-n8"][0])
    assert code == 0
    drifts = [float(line.rsplit(",", 1)[1]) for line in out.splitlines()[1:]]
    assert len(drifts) == 17  # t = 0 and 16 steps
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
    argvs = [golden.CLI_GOLDEN["simulate-n3"][0], golden.CLI_GOLDEN["simulate-n8"][0],
             ["verify", "--mode", "float", "--n-max", "2", "--trials", "1"]]
    env = dict(os.environ, PYTHONPATH=str(Path(toda_bn.__file__).resolve().parent.parent))
    done = subprocess.run([sys.executable, "-c", code, json.dumps(argvs)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr


def test_no_command_imports_dataclasses_and_only_verify_loads_the_verify_module():
    # a None entry makes any import of dataclasses raise ImportError; every
    # command, verify included, runs without it, and only verify loads
    # toda_bn.verify
    code = ("import json, sys\n"
            "sys.modules['dataclasses'] = None\n"
            "import toda_bn\n"
            "from toda_bn.cli import main\n"
            "argvs, last = json.loads(sys.argv[1])\n"
            "for argv in argvs:\n"
            "    if main(argv) != 0:\n"
            "        sys.exit(f'{argv} failed')\n"
            "if 'toda_bn.verify' in sys.modules:\n"
            "    sys.exit('toda_bn.verify was imported')\n"
            "if main(last) != 0 or 'toda_bn.verify' not in sys.modules:\n"
            "    sys.exit('verify did not run through toda_bn.verify')\n")
    exact = '{"n": 2, "z": ["2", "3"], "Q": ["1/2", "1/5"]}'
    argvs = [["simulate", "--init", json.dumps(golden.FLOW_N3), "--T", "0.004",
              "--h", "0.001"],
             ["conserved", "--point", exact],
             ["conserved", "--point", '{"n": 2, "z": [1.5, 0.5], "Q": [-0.3, 0.2]}'],
             ["lax", "--point", exact],
             ["canonical", "--point", '{"q": [0.1, -0.2], "p": [0.3, 0.0]}'],
             ["backlund", "--route", "both", "--point", exact]]
    last = ["verify", "--mode", "float", "--n-max", "1", "--trials", "1"]
    env = dict(os.environ, PYTHONPATH=str(Path(toda_bn.__file__).resolve().parent.parent))
    done = subprocess.run([sys.executable, "-c", code, json.dumps([argvs, last])],
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
