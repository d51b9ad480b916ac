"""Command-line interface.

Subcommands: lax, conserved, simulate, backlund, canonical, verify.
Exit codes: 0 success, 1 verification failure, 2 bad input or flags, or
output that cannot be written.

Every point argument goes through `_parse_point`: a phase point or a
canonical point, as inline JSON, a JSON file or a bare comma list;
rationals are encoded as "p/q" strings, floats as plain numbers.  It
checks the JSON shape alone; `lax.PhasePoint` and `dynamics.CanonicalPoint`
check the rank and the coordinates.  The
four --point subcommands (lax, conserved, backlund, canonical) share one
parse-and-emit path, `cmd_point`, and differ only in their payload
function of (phase point, canonical point, args); `backlund` takes each
route's orbit from `backlund.iterate`, so a failing orbit names its
step.  `main` lifts Python's int/str digit limit for the length of one
call, since exact points and orbits write integers of any length.
`verify` is imported by its own command, `cmd_verify`, so no other
subcommand loads `toda_bn.verify`.  The environment variable
TODA_BN_SEED provides the default seed for `verify`.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import os
import sys

from . import backlund as bk
from . import conserved as cv
from . import dynamics as dy
from . import lax as lx
from .errors import TodaError
from .linalg import close, format_scalar


#: `conserved` at a float point: the char_poly and chain-sum values of each
#: F_i must agree within this times max(1, |F_i|) for routes_agree.
ROUTES_RTOL = 1e-10


#: Output is written this many lines at a time: few enough that a long
#: `simulate` never holds its whole CSV as text, enough that an unbuffered
#: stdout is not written once per row.
BLOCK_LINES = 4096


class CliError(Exception):
    """Bad input reported to the user (exit code 2)."""


def _parse_point(arg: str, n_flag: int | None = None):
    """The point a --point or --init argument gives, as (phase point, canonical point).

    ``arg`` is inline JSON, the path of a JSON file, or a bare comma list
    q_1..q_n,p_1..p_n.  The JSON holds a phase point {"n": .., "z": [..],
    "Q": [..]} or a canonical point {"q": [..], "p": [..]}; the canonical
    point is None for a phase point.  A point that is malformed or that the
    point classes refuse, and a rank other than ``n_flag``, raise CliError.
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
            c = dy.CanonicalPoint(tuple(obj["q"]), tuple(obj["p"]))
            x = dy.to_phase(c)
        else:
            c = None
            x = lx.PhasePoint.from_json_obj(obj)
    except (TodaError, ValueError, TypeError, ZeroDivisionError, OverflowError) as e:
        raise CliError(f"bad point: {type(e).__name__}: {e}") from e
    if n_flag is not None and x.n != n_flag:
        raise CliError(f"--n {n_flag} does not match point rank {x.n}")
    return x, c


def _emit(lines, out: str | None):
    """Write each string of ``lines`` and a newline to the file ``out``, or
    to stdout, BLOCK_LINES strings per write.

    A file that cannot be opened or written, and a stdout whose reader has
    gone (``simulate ... | head -1``), raise CliError.  Stdout is flushed
    here, so its errors surface here; after one, its descriptor is pointed
    at the null device, so the flush at interpreter exit has nothing left
    to report.
    """
    lines = iter(lines)
    try:
        with open(out, "w", encoding="utf-8") if out else contextlib.nullcontext(sys.stdout) as fh:
            while block := list(itertools.islice(lines, BLOCK_LINES)):
                fh.write("\n".join(block) + "\n")
            fh.flush()
    except OSError as e:
        if not out:
            with contextlib.suppress(OSError, ValueError):  # a stdout without a descriptor
                fd, devnull = sys.stdout.fileno(), os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, fd)
                os.close(devnull)
        raise CliError(f"cannot write {out or 'stdout'}: {e.strerror or e}") from e


def _json_dumps(obj) -> str:
    """obj as indented JSON; a NaN or infinite float raises CliError."""
    try:
        return json.dumps(obj, indent=2, allow_nan=False)
    except ValueError as e:
        raise CliError(f"result is not finite: {e}") from e


def cmd_point(args) -> int:
    """A --point subcommand: its payload of the point, as indented JSON."""
    x, c = _parse_point(args.point, args.n)
    _emit([_json_dumps(args.payload(x, c, args))], args.out)
    return 0


def _lax_payload(x, c, args) -> dict:
    L = lx.build_lax(x)
    return {"n": x.n, "L": L.to_json_obj(), "in_gamma": lx.gamma_membership(L).in_gamma}


def _conserved_payload(x, c, args) -> dict:
    f = cv.conserved_values(x)
    chains = cv._path_sums(x)
    agree = all(close(a, b, x.mode, ROUTES_RTOL, abs(a)) for a, b in zip(f, chains))
    return {"F": [format_scalar(v) for v in f], "routes_agree": agree}


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
    rows = (",".join(map(repr, (k * traj.h, *row))) for k, row in enumerate(traj.rows()))
    _emit(itertools.chain([",".join(header)], rows), args.out)
    return 0


def _backlund_payload(x, c, args) -> dict:
    if args.steps < 0:
        raise CliError("--steps must be >= 0")
    routes = ("map", "conjugate") if args.route == "both" else (args.route,)
    orbits = [bk.iterate(x, args.steps, bk.backlund_map if r == "map" else bk.backlund_conjugate)
              for r in routes]
    steps = []
    for k, points in enumerate(zip(*orbits)):
        entry = {"step": k}
        for r, p in zip(routes, points):
            entry[r] = {"point": p.to_json_obj(),
                        "F": [format_scalar(v) for v in cv.conserved_values(p)]}
        if len(points) == 2:
            entry["routes_agree"] = points[0] == points[1]
        steps.append(entry)
    return {"route": args.route, "steps": steps}


def _canonical_payload(x, c, args) -> dict:
    if c is not None:
        return {"point": x.to_json_obj(),
                "H_phase": dy.hamiltonian(x),
                "H_canonical": dy.hamiltonian_canonical(c)}
    c = dy.from_phase(x)
    return {"q": list(c.q), "p": list(c.p),
            "H_phase": float(dy.hamiltonian(x)),
            "H_canonical": dy.hamiltonian_canonical(c)}


def cmd_verify(args) -> int:
    from .verify import VerifySuiteConfig, run_suite

    seed = args.seed
    if seed is None:
        value = os.environ.get("TODA_BN_SEED", "7")
        try:
            seed = int(value)
        except ValueError:
            raise CliError(f"TODA_BN_SEED is not an integer: {value!r}") from None
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
    _emit(lines, args.out)
    return 0 if ok else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser of every subcommand, built once per process.

    ``parse_args`` reads the parser and never changes it, so repeated
    ``main`` calls in one process share it.
    """
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

    def point_command(name: str, summary: str, payload) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary)
        add_point(p)
        p.set_defaults(fn=cmd_point, payload=payload)
        return p

    point_command("lax", "build the Lax matrix at a point", _lax_payload)
    point_command("conserved", "conserved quantities F_0..F_2n at a point", _conserved_payload)

    p = sub.add_parser("simulate", help="integrate the flow with fixed-step RK4")
    add_point(p, init=True)
    p.add_argument("--T", type=float, required=True, help="final time")
    p.add_argument("--h", type=float, default=1e-3, help="step size")
    p.set_defaults(fn=cmd_simulate)

    p = point_command("backlund", "iterate the discrete-time map", _backlund_payload)
    p.add_argument("--steps", type=int, default=1)
    p.add_argument("--route", choices=("map", "conjugate", "both"), default="map")
    point_command("canonical", "convert between canonical and phase coordinates",
                  _canonical_payload)

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
    # the int/str digit limit (Python 3.10.7 on) is lifted for this call only
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
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
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
