"""The three benchmark workloads: inputs, timed operations and checks.

Every workload is a closed loop in one process and one thread: each call
starts only after the previous one has returned.  Inputs come from the
benchmark's own RNG, seeded from ``--seed``; the package's own samplers
are never used to make a workload, so changing them cannot change one.

A run does a fixed amount of work: ``rounds(workload, seconds)`` rounds,
sized so that a run of the parent commit takes about ``seconds``.  Keeping
the work fixed (instead of looping until a deadline) lets ``wall_s`` show
a faster or slower program.

Each workload returns a list of :class:`Op`, one per operation: one
``verify`` CLI call, one ``simulate`` CLI call, or one Backlund orbit step.
The checks run after the timed loop and never inside a timed region.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import statistics
from dataclasses import dataclass
from fractions import Fraction

from toda_bn import backlund as bk
from toda_bn import cli
from toda_bn import conserved as cv
from toda_bn import lax as lx
from toda_bn.errors import TodaError

from speed import Clock

#: Seconds one round takes at the parent commit on a 2-core Xeon; a run of
#: ``seconds`` does ``round(seconds / ROUND_SECONDS)`` rounds.
ROUND_SECONDS = {"verify-suite": 8.0, "flow": 2.7, "backlund-orbit": 6.0}

# verify-suite: the CLI default rank cap, and few trials so that a run
# holds several rounds (at the default of 50 trials one call takes 30 s).
VERIFY_N_MAX = 4
VERIFY_TRIALS = 5

# flow: h = 2^-10 makes every T a whole multiple of h and every time
# t = k h exact in binary64.  Steps per rank are sized so that each rank
# costs about the same per round; the drift bookkeeping at n = 6 costs
# ~60 ms per step, at n = 3 ~0.5 ms.
FLOW_H = 2.0 ** -10
FLOW_STEPS = {3: 1024, 6: 16, 8: 32}
#: Drift bound of the verify identity flow-conservation.
DRIFT_BOUND = 1e-8

# backlund-orbit: entry heights grow ~80 bits per step, so 12 steps take
# an orbit from small to large rationals.  A round has one orbit at n = 3
# and two at n = 4: n = 4 steps are 2-3x slower, and with an even mix the
# median would fall in the gap between the two ranks' step times.  A 24 s
# run has 4 rounds, 144 step samples, so p90 has 14 samples beyond it.
ORBIT_RANKS = (3, 4, 4)
ORBIT_STEPS = 12

#: Failures that document a known defect of the program rather than a
#: broken benchmark; they count in ``failed`` but keep ``correct`` true.
#: * The n = 8 drift column is computed by float char_poly, whose roundoff
#:   at n = 8 is 0.1 to 2 (ROADMAP open item 2); the flow itself is accurate.
#: * On about 1 seed in 30, `verify --mode rational` exits 2: the
#:   "G_minus fixed" step of projection-splitting-factorization draws a
#:   G_minus element whose unpivoted LU does not exist, and the
#:   DegeneratePointError escapes (e.g. --seed 430260648 --trials 5).
KNOWN_DEFECTS = {("flow", "n8", "drift-column"),
                 ("verify-suite", "rational", "exit-2-DegeneratePointError")}

#: Each workload's own end-to-end figures: name -> (unit, better, bound).
#: They are printed on the run record rather than as BENCHMARK.json
#: metrics, because a BENCHMARK.json metric must be reported by every
#: workload.  ``perfbench/compare.py`` applies these bounds.
DETAIL_METRICS = {
    "rational_s": ("s", "lower", 0.25),
    "float_s": ("s", "lower", 0.25),
    "step_us.n3": ("us", "lower", 0.25),
    "step_us.n6": ("us", "lower", 0.25),
    "step_us.n8": ("us", "lower", 0.25),
    "orbit_step_p50_ms": ("ms", "lower", 0.25),
    "orbit_step_p90_ms": ("ms", "lower", 0.25),
    "orbit_step_samples": ("count", "higher", None),
}


@dataclass
class Op:
    """One timed operation, its output, and the verdict of its check."""

    workload: str
    kind: str
    seconds: float  # as measured
    norm_s: float  # at the reference speed, see speed.py
    output: object  # the call's result, or the exception it raised
    failure: str | None = None

    @property
    def known_failure(self) -> bool:
        return (self.workload, self.kind, self.failure) in KNOWN_DEFECTS


def rounds(workload: str, seconds: float) -> int:
    return max(1, round(seconds / ROUND_SECONDS[workload]))


def workload_rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def call_cli(argv: list[str]) -> tuple[int, str, str]:
    """One in-process ``toda-bn`` call; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _exit_failure(code: int, err: str) -> str:
    """``exit-<code>``, with the error class the CLI names on stderr."""
    words = err.split()  # "error: DegeneratePointError: ..."
    if len(words) > 1 and words[1].endswith("Error:"):
        return f"exit-{code}-{words[1][:-1]}"
    return f"exit-{code}"


def _random_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.choice([k for k in range(-9, 10) if k]), rng.randint(1, 9))


# -- plans: all inputs, made before anything is timed or traced --------------


def make_plan(workload: str, seed: int, seconds: float) -> dict:
    rng = workload_rng(workload, seed)
    plan = {"workload": workload, "rounds": rounds(workload, seconds)}
    if workload == "verify-suite":
        plan["verify_seeds"] = [rng.randrange(1, 2 ** 31) for _ in range(plan["rounds"])]
    elif workload == "flow":
        plan["init"] = {n: {"q": [rng.uniform(-1, 1) for _ in range(n)],
                            "p": [rng.uniform(-1, 1) for _ in range(n)]}
                        for n in FLOW_STEPS}
    elif workload == "backlund-orbit":
        plan["orbits"] = [_generic_point(n, rng)
                          for _ in range(plan["rounds"]) for n in ORBIT_RANKS]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return plan


def _generic_point(n: int, rng: random.Random):
    """A rational point where both Backlund routes are defined, with its F."""
    while True:
        x = lx.PhasePoint(n, tuple(_random_rational(rng) for _ in range(n)),
                          tuple(_random_rational(rng) for _ in range(n)))
        try:
            bk.backlund_map(x)
            bk.backlund_conjugate(x)
        except (TodaError, ZeroDivisionError):
            continue
        return x, cv.conserved_values(x)


# -- timed loops ---------------------------------------------------------------


def run_ops(plan: dict) -> list[Op]:
    loop = {"verify-suite": _run_verify_suite, "flow": _run_flow,
            "backlund-orbit": _run_orbit}[plan["workload"]]
    return loop(plan, Clock())


def verify_argv(mode: str, seed: int) -> list[str]:
    return ["verify", "--mode", mode, "--seed", str(seed),
            "--n-max", str(VERIFY_N_MAX), "--trials", str(VERIFY_TRIALS)]


def _run_verify_suite(plan: dict, clock: Clock) -> list[Op]:
    ops = []
    for seed in plan["verify_seeds"]:
        for mode in ("rational", "float"):
            argv = verify_argv(mode, seed)
            ops.append(Op("verify-suite", mode, *clock.time(lambda: call_cli(argv))))
    return ops


def flow_argv(init: dict, n: int) -> list[str]:
    return ["simulate", "--init", json.dumps(init),
            "--T", repr(FLOW_STEPS[n] * FLOW_H), "--h", repr(FLOW_H)]


def _run_flow(plan: dict, clock: Clock) -> list[Op]:
    ops = []
    for _ in range(plan["rounds"]):
        for n, init in plan["init"].items():
            argv = flow_argv(init, n)
            ops.append(Op("flow", f"n{n}", *clock.time(lambda: call_cli(argv))))
    return ops


def _run_orbit(plan: dict, clock: Clock) -> list[Op]:
    # One step makes the calls that `toda-bn backlund --route both` makes.
    ops = []
    for index, (x0, _) in enumerate(plan["orbits"]):
        points = [x0, x0]  # (map route, conjugation route)

        def step():
            points[:] = [bk.backlund_map(points[0]), bk.backlund_conjugate(points[1])]
            return index, *points, *map(cv.conserved_values, points)

        for _ in range(ORBIT_STEPS):
            ops.append(Op("backlund-orbit", f"n{x0.n}", *clock.time(step)))
            if isinstance(ops[-1].output, Exception):
                break
    return ops


# -- checks (untimed) --------------------------------------------------------


def check_ops(plan: dict, ops: list[Op]) -> None:
    """Set ``op.failure`` on every operation whose output is wrong."""
    for op in ops:
        if isinstance(op.output, Exception):
            op.failure = f"raised-{type(op.output).__name__}"
    check = {"verify-suite": _check_verify_suite, "flow": _check_flow,
             "backlund-orbit": _check_orbit}[plan["workload"]]
    check(plan, [op for op in ops if op.failure is None])


def _check_verify_suite(plan: dict, ops: list[Op]) -> None:
    # The first round's two calls are made once more, untimed: the reports
    # of a repeated call at one seed must be byte-identical.
    again = {mode: call_cli(verify_argv(mode, plan["verify_seeds"][0]))
             for mode in ("rational", "float")}
    for op in ops:
        code, text, err = op.output
        if code != 0:
            op.failure = _exit_failure(code, err)
            continue
        try:
            summary = json.loads(text.splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            op.failure = "no-summary"
            continue
        if summary.get("overall") != "pass":
            op.failure = "overall-" + str(summary.get("overall"))
        elif summary["seed"] == plan["verify_seeds"][0] and again[op.kind] != op.output:
            op.failure = "report-differs-at-same-seed"


def _exact_drift(rows: list[list[str]], n: int) -> Fraction:
    """max_i |F_i(end) - F_i(start)| / max(1, |F_i(start)|), exactly.

    The printed floats are converted to Fraction, which is exact.
    """
    def point(row):
        return lx.PhasePoint(n, tuple(Fraction(float(v)) for v in row[1:1 + n]),
                             tuple(Fraction(float(v)) for v in row[1 + n:1 + 2 * n]))
    f0 = cv.conserved_values(point(rows[0]))
    f1 = cv.conserved_values(point(rows[-1]))
    return max(abs(b - a) / max(1, abs(a)) for a, b in zip(f0, f1))


def _flow_failure(text: str, n: int) -> str | None:
    lines = text.splitlines()
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != FLOW_STEPS[n] + 1 or any(len(r) != 2 * n + 2 for r in rows):
        return "bad-shape"
    if float(rows[-1][0]) != FLOW_STEPS[n] * FLOW_H:
        return "t-end"
    if _exact_drift(rows, n) > DRIFT_BOUND:
        return "exact-drift"
    if max(float(r[-1]) for r in rows) > DRIFT_BOUND:
        return "drift-column"
    return None


def _check_flow(plan: dict, ops: list[Op]) -> None:
    # The same init is simulated in every round, so outputs must repeat
    # byte for byte; the costly exact check runs once per distinct output.
    verdicts: dict[tuple[str, str], str | None] = {}
    for op in ops:
        code, text, err = op.output
        if code != 0:
            op.failure = _exit_failure(code, err)
            continue
        key = (op.kind, text)
        if key not in verdicts:
            if any(k == op.kind for k, _ in verdicts):
                verdicts[key] = "output-differs-at-same-input"
            else:
                verdicts[key] = _flow_failure(text, int(op.kind[1:]))
        op.failure = verdicts[key]


def _check_orbit(plan: dict, ops: list[Op]) -> None:
    for op in ops:
        index, xm, xc, fm, fc = op.output
        f0 = plan["orbits"][index][1]
        if xm != xc:
            op.failure = "routes-differ"
        elif fm != f0 or fc != f0:
            op.failure = "F-changed"


# -- end-to-end figures ----------------------------------------------------------


def output_digest(ops: list[Op]) -> str:
    """sha256 over every operation's output, in order."""
    h = hashlib.sha256()
    for op in ops:
        if isinstance(op.output, Exception):
            text = repr(op.output)
        elif op.workload == "backlund-orbit":
            _, xm, xc, fm, fc = op.output
            text = json.dumps([xm.to_json_obj(), xc.to_json_obj(),
                               [str(v) for v in fm], [str(v) for v in fc]])
        else:
            text = json.dumps(op.output)
        h.update(text.encode() + b"\n")
    return h.hexdigest()


def detail_metrics(workload: str, ops: list[Op]) -> dict:
    """The workload's own end-to-end figures: per-call and per-step times."""
    by_kind: dict[str, list[float]] = {}
    for op in ops:
        by_kind.setdefault(op.kind, []).append(op.norm_s)
    if workload == "verify-suite":  # one call per seed: the mean over seeds
        values = {"rational_s": statistics.mean(by_kind["rational"]),
                  "float_s": statistics.mean(by_kind["float"])}
    elif workload == "flow":
        values = {f"step_us.n{n}": statistics.median(by_kind[f"n{n}"]) / FLOW_STEPS[n] * 1e6
                  for n in FLOW_STEPS}
    else:
        steps_ms = [op.norm_s * 1e3 for op in ops]
        values = {"orbit_step_p50_ms": statistics.median(steps_ms),
                  "orbit_step_p90_ms": statistics.quantiles(steps_ms, n=10)[8],
                  "orbit_step_samples": len(steps_ms)}
    return {name: dict(zip(("value", "unit", "better", "bound"),
                           (value, *DETAIL_METRICS[name])))
            for name, value in values.items()}
