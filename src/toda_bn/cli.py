"""Command-line interface.

Subcommands: lax, conserved, simulate, backlund, canonical, verify.
Exit codes: 0 success, 1 verification failure, 2 bad input or flags.

Every point argument goes through `_parse_point`: a phase point or a
canonical point, as inline JSON, a JSON file or a bare comma list;
rationals are encoded as "p/q" strings, floats as plain numbers.  The
environment variable TODA_BN_SEED provides the default seed for `verify`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import backlund as bk
from . import conserved as cv
from . import dynamics as dy
from . import lax as lx
from .errors import TodaError
from .linalg import format_scalar
from .verify import VerifySuiteConfig, run_suite


#: `conserved` at a float point: the char_poly and chain-sum values of each
#: F_i must agree within this times max(1, |F_i|) for routes_agree.
ROUTES_RTOL = 1e-10


class CliError(Exception):
    """Bad input reported to the user (exit code 2)."""


def _parse_point(arg: str, n_flag: int | None = None):
    """The point a --point or --init argument gives, as (phase point, canonical point).

    ``arg`` is inline JSON, the path of a JSON file, or a bare comma list
    q_1..q_n,p_1..p_n.  The JSON holds a phase point {"n": .., "z": [..],
    "Q": [..]} or a canonical point {"q": [..], "p": [..]}; the canonical
    point is None for a phase point.  A malformed or non-finite point, and a
    rank other than ``n_flag``, raise CliError.
    """
    inline = arg.lstrip().startswith(("{", "["))
    if not inline and "," in arg and not os.path.exists(arg):
        try:
            values = [float(v) for v in arg.split(",")]
        except ValueError as e:
            raise CliError(f"bad point list {arg!r}: {e}") from e
        obj = {"q": values[:len(values) // 2], "p": values[len(values) // 2:]}
    else:
        text = arg
        if not inline:
            try:
                with open(arg, "r", encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as e:
                raise CliError(f"cannot read {arg!r}: {e}") from e
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as e:
            raise CliError(f"malformed JSON: {e}") from e
    keys = set(obj) if isinstance(obj, dict) else set()
    canonical = {"q", "p"} <= keys
    if not canonical and not {"n", "z", "Q"} <= keys:
        raise CliError('expected a phase point {"n": .., "z": [..], "Q": [..]} '
                       'or a canonical point {"q": [..], "p": [..]}')
    lists = ("q", "p") if canonical else ("z", "Q")
    if not all(isinstance(obj[k], list) for k in lists):
        raise CliError(f"{lists[0]} and {lists[1]} must be lists")
    try:
        if canonical:
            if any(isinstance(v, (bool, str)) for k in lists for v in obj[k]):
                raise CliError("canonical coordinates must be numbers")
            c = dy.CanonicalPoint(tuple(obj["q"]), tuple(obj["p"]))
            x = dy.to_phase(c)
        else:
            c = None
            if isinstance(obj["n"], bool) or not isinstance(obj["n"], int):
                raise CliError(f"rank n must be an integer, got {obj['n']!r}")
            x = lx.PhasePoint.from_json_obj(obj)
            if x.mode == "float" and not all(map(math.isfinite, x.z + x.Q)):
                raise CliError("coordinates must be finite")
    except (TodaError, ValueError, TypeError, ZeroDivisionError, OverflowError) as e:
        raise CliError(f"bad point: {type(e).__name__}: {e}") from e
    if n_flag is not None and x.n != n_flag:
        raise CliError(f"--n {n_flag} does not match point rank {x.n}")
    return x, c


def _emit(payload: str, out: str | None):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _json_dumps(obj) -> str:
    """obj as indented JSON; a NaN or infinite float raises CliError."""
    try:
        return json.dumps(obj, indent=2, allow_nan=False) + "\n"
    except ValueError as e:
        raise CliError(f"result is not finite: {e}") from e


def cmd_lax(args) -> int:
    x, _ = _parse_point(args.point, args.n)
    L = lx.build_lax(x)
    rep = lx.gamma_membership(L)
    _emit(_json_dumps({"n": x.n, "L": L.to_json_obj(),
                       "in_gamma": rep.in_gamma}), args.out)
    return 0


def cmd_conserved(args) -> int:
    x, _ = _parse_point(args.point, args.n)
    f = cv.conserved_values(x)
    chains = cv._chain_sums(x.n, x.z, x.Q, False)
    if x.mode == "exact":
        agree = f == chains
    else:
        agree = all(abs(a - b) <= ROUTES_RTOL * max(1.0, abs(a)) for a, b in zip(f, chains))
    _emit(_json_dumps({"F": [format_scalar(v) for v in f], "routes_agree": agree}), args.out)
    return 0


def cmd_simulate(args) -> int:
    x, _ = _parse_point(args.init, args.n)
    x0 = x.to_float()
    try:
        dy.step_count(args.T, args.h, names=("--T", "--h"))
    except ValueError as e:
        raise CliError(str(e)) from e
    traj = dy.integrate(x0, T=args.T, h=args.h)
    n = x0.n
    header = ["t"] + [f"z_{i + 1}" for i in range(n)] + \
        [f"Q_{i + 1}" for i in range(n)] + ["drift"]
    lines = [",".join(header)]
    for t, s, drift in zip(traj.times, traj.states, traj.drifts):
        lines.append(",".join(map(repr, (t, *s.z, *s.Q, drift))))
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_backlund(args) -> int:
    x, _ = _parse_point(args.point, args.n)
    if args.steps < 0:
        raise CliError("--steps must be >= 0")
    _emit(_json_dumps(_backlund_payload(x, args.steps, args.route)), args.out)
    return 0


def _backlund_payload(x, steps: int, route: str) -> dict:
    routes = ("map", "conjugate") if route == "both" else (route,)
    payload = {"route": route, "steps": []}
    points = {r: x for r in routes}
    for k in range(steps + 1):
        entry = {"step": k}
        for r in routes:
            p = points[r]
            entry[r] = {"point": p.to_json_obj(),
                        "F": [format_scalar(v) for v in cv.conserved_values(p)]}
        if len(routes) == 2:
            entry["routes_agree"] = points["map"] == points["conjugate"]
        payload["steps"].append(entry)
        if k < steps:
            for r in routes:
                points[r] = (bk.backlund_map(points[r]) if r == "map"
                             else bk.backlund_conjugate(points[r]))
    return payload


def _canonical_payload(x, c) -> dict:
    if c is not None:
        return {"point": x.to_json_obj(),
                "H_phase": dy.hamiltonian(x),
                "H_canonical": dy.hamiltonian_canonical(c)}
    c = dy.from_phase(x)
    return {"q": list(c.q), "p": list(c.p),
            "H_phase": float(dy.hamiltonian(x)),
            "H_canonical": dy.hamiltonian_canonical(c)}


def cmd_canonical(args) -> int:
    x, c = _parse_point(args.point, args.n)
    _emit(_json_dumps(_canonical_payload(x, c)), args.out)
    return 0


def cmd_verify(args) -> int:
    seed = args.seed
    if seed is None:
        seed = int(os.environ.get("TODA_BN_SEED", "7"))
    cfg = VerifySuiteConfig(n_max=args.n_max, trials=args.trials,
                            seed=seed, mode=args.mode)
    results = run_suite(cfg)
    ok = all(r.passed for r in results)
    lines = [json.dumps(r.to_json_obj()) for r in results]
    lines.append(json.dumps({
        "overall": "pass" if ok else "fail",
        "seed": seed, "n_max": cfg.n_max, "trials": cfg.trials, "mode": cfg.mode,
        "identities": len(results),
        "failed": [r.name for r in results if not r.passed],
    }))
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="toda-bn",
        description="Type-Bn relativistic Toda chain: Lax matrices, conserved "
                    "quantities, flows, Backlund maps, and a dual-route "
                    "verification suite.")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_point(p, init=False):
        if init:
            p.add_argument("--init", required=True,
                           help="phase point JSON, canonical {q,p} JSON, "
                                "a file with either, or a bare comma list "
                                "q_1..q_n,p_1..p_n")
        else:
            p.add_argument("--point", required=True,
                           help="inline JSON or path to a JSON file")
        p.add_argument("--n", type=int, default=None, help="expected rank (checked)")
        p.add_argument("--out", default=None, help="write output to this file")

    p = sub.add_parser("lax", help="build the Lax matrix at a point")
    add_point(p)
    p.set_defaults(fn=cmd_lax)

    p = sub.add_parser("conserved", help="conserved quantities F_0..F_2n at a point")
    add_point(p)
    p.set_defaults(fn=cmd_conserved)

    p = sub.add_parser("simulate", help="integrate the flow with fixed-step RK4")
    add_point(p, init=True)
    p.add_argument("--T", type=float, required=True, help="final time")
    p.add_argument("--h", type=float, default=1e-3, help="step size")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("backlund", help="iterate the discrete-time map")
    add_point(p)
    p.add_argument("--steps", type=int, default=1)
    p.add_argument("--route", choices=("map", "conjugate", "both"), default="map")
    p.set_defaults(fn=cmd_backlund)

    p = sub.add_parser("canonical", help="convert between canonical and phase coordinates")
    add_point(p)
    p.set_defaults(fn=cmd_canonical)

    p = sub.add_parser("verify", help="run the randomized identity suite")
    p.add_argument("--seed", type=int, default=None,
                   help="RNG seed (default: TODA_BN_SEED or 7)")
    p.add_argument("--n-max", type=int, default=4)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--mode", choices=("rational", "float", "both"), default="both")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_verify)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (CliError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except TodaError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2
    except ArithmeticError as e:
        # a float point past the range: an overflow, or a division by an underflowed 0.0
        print(f"error: point is out of the float range: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
