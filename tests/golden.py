"""Every pinned output digest of toda-bn, in one table.

Each check is a name, a function that computes a sha256 hex digest, and the
digest it must give:

- ``CLI_GOLDEN``: the bytes ``toda-bn`` writes to stdout, one row an argv;
- ``F_POLY_GOLDEN``: the term order of ``f_poly`` at n = 1..6, both modes;
- ``FLOAT_PATH_GOLDEN``: the float bits of F_0..F_2n by the path formula.

Rational output is the same bytes on every Python.  Float matrix products,
traces and norms add in order, not with ``sum()``, so the float rows hold
on CPython 3.10 through 3.13 as well.

The module needs only the standard library and the package.  Run every
check, in one process, with

    python tests/golden.py

(``PYTHONPATH=src`` from a checkout without an install).  It exits 0 when
every digest holds, and 1 at the first one that does not, naming the check
and the digest it got.  Tier-1 runs the same checks through one
parametrized test (tests/test_cli.py).  A change that moves a digest on
purpose edits its one row here and says why.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import os
import sys

from toda_bn import PhasePoint, cli, conserved_values_by_path, f_poly

#: simulate's step: every t = k h is exact in binary64, and each --T below
#: is a whole number of steps
FLOW_H = 2.0 ** -10


def simulate(init: dict, steps: int) -> tuple:
    """The argv of a simulate run of ``steps`` steps of FLOW_H from ``init``."""
    return ("simulate", "--init", json.dumps(init),
            "--T", repr(steps * FLOW_H), "--h", repr(FLOW_H))


EXACT_N3 = '{"n":3,"z":["2","-3","5/2"],"Q":["1/3","2/5","-1/2"]}'
FLOW_N3 = {"q": [0.31, -0.52, 0.17], "p": [0.12, -0.43, 0.64]}

#: name: (argv, sha256 of stdout).  The rows read the default seed 7, so
#: TODA_BN_SEED must be unset where a row gives no --seed.
CLI_GOLDEN = {
    # verify reports
    "verify-defaults": (("verify",),
                        "2622a35200567f138138d6896f082c82af862dc26cdecb54e45337dcd065018d"),
    "verify-rational-defaults": (
        ("verify", "--mode", "rational", "--seed", "7"),
        "4fb70de7d793871e3eeebb1157f92e7c564d0061a6751e6bc5cef5608e3a3630"),
    "verify-rational-n3": (
        ("verify", "--mode", "rational", "--seed", "7", "--n-max", "3", "--trials", "3"),
        "6559814895a63af8b9769a47ee9eb627a8c8c631732f9461ba5f337e628eb726"),
    # n = 4 is where the exact Laurent evaluation and the dual pass of
    # lax-hamilton-equivalence do most of their work
    "verify-rational-n4": (
        ("verify", "--mode", "rational", "--seed", "7", "--n-max", "4", "--trials", "5"),
        "bcba3451adf8fd53b28d869ef522dd78739475274c687e08bc38553fa052b685"),
    # expands the path formula at n = 5 and 6
    "verify-rational-n6": (
        ("verify", "--mode", "rational", "--n-max", "6", "--trials", "1"),
        "56149140e3f155912f8ab6a6b9073397fb9722c69c06055911464487374ef485"),
    "verify-float-defaults": (
        ("verify", "--mode", "float"),
        "45b0535e1570871f32da149b5f7d8b97b58da66ca1fa7d35322c169284a448b1"),
    "verify-float-n3": (
        ("verify", "--mode", "float", "--seed", "7", "--n-max", "3", "--trials", "3"),
        "d7922d5bdb37426063123c839d5b378103f1037d33f5db5273c81bec8f56a235"),
    # simulate CSVs, drift column included.  The drift compares the
    # chain-sum pass at each state with F(0) from LaurentPoly.evaluate at
    # n = 3 and from the float Hessenberg char_poly from n = 4 on
    # (dynamics._reference_values)
    "simulate-n3": (simulate(FLOW_N3, 256),
                    "45df05636b892d275c4024107c2c6b6c30f8efb1f78fbb03d59efb7db5c9cb33"),
    "simulate-n4": (
        simulate({"q": [-0.33, 0.58, 0.09, -0.21], "p": [0.46, -0.12, -0.37, 0.25]}, 16),
        "0ddffc6512edff6387911a626ea1a1525c51df70d91aa909c366c35bcc9a5982"),
    "simulate-n6": (
        simulate({"q": [0.21, -0.35, 0.48, -0.12, 0.66, -0.27],
                  "p": [-0.14, 0.39, 0.05, -0.58, 0.23, 0.41]}, 8),
        "e55adb0a5eafd9f59c7eae5bd9b03a5e83da36ee3ecd1028da3c996595485ea9"),
    "simulate-n8": (
        simulate({"q": [0.44, -0.19, 0.27, -0.63, 0.08, 0.35, -0.41, 0.16],
                  "p": [0.22, -0.31, 0.57, 0.09, -0.46, 0.13, -0.05, 0.38]}, 16),
        "13f7caacd08441e95fea6c7778ce214571a00ffe2358e77a3c5007c8b6832d55"),
    # 102 400 steps, written in many blocks
    "simulate-n3-long": (simulate(FLOW_N3, 102400),
                         "263f17434204a83d666f09bc1ccb9e9dcf6b4a889385ba4de0473046a9b83184"),
    # above the inline depth cap of the compiled kernels
    "simulate-n25": (
        simulate({"q": [-0.25, 0.85, 0.69, -0.57, 0.74, 0.27, -0.92, 0.91, -0.49, -0.39,
                        -0.15, 0.18, -0.75, 0.37, 0.66, 0.02, 0.59, 0.25, 0.65, -0.64,
                        -0.28, -0.06, -0.79, 0.95, 0.27],
                  "p": [-0.8, 0.17, -0.17, -0.62, -0.68, -0.08, -0.86, 0.13, 0.03, -0.75,
                        0.75, -0.92, -0.66, 0.63, -0.56, -0.15, 0.12, -0.13, -0.01, 0.01,
                        -0.03, -0.88, 0.63, -0.43, -0.9]}, 4),
        "98055026a9feec3cca968cacff0eebd81854ab9e22c13588eebc046aff6ef384"),
    # exact conserved quantities: char_poly and the chain-sum pass over
    # Fraction; rank 1 is the smallest Gamma_2 read of L^-1, rank 6 the
    # path-formula cap
    "conserved-exact-n3": (
        ("conserved", "--point", EXACT_N3),
        "35dab9bd4dce83e4e17a59f218a4898889f2494d89d2d0dd04a52a17b0c87665"),
    "conserved-exact-n1": (
        ("conserved", "--point", '{"n":1,"z":["3/2"],"Q":["-2/5"]}'),
        "4e9f3509e76ea2a063858bc386cefc0ad81489842cae5cff2a7be88e4b4a8755"),
    "conserved-exact-n6": (
        ("conserved", "--point", '{"n":6,"z":["2","-3","5/2","7","-1/3","4/5"],'
                                 '"Q":["1/3","2/5","-1/2","3/7","-5/4","2/9"]}'),
        "cd7c91dcfb283ad61d594d6a5d13c8f92acbd36ceb592498a5b0fdecb77afa5f"),
    # float conserved quantities: char_poly and the pruned chain-sum pass,
    # at a tiny z inside the window and at n = 8
    "conserved-float-tiny-z": (
        ("conserved", "--point", '{"n":2,"z":[1e-12,3],"Q":[0.5,0.2]}'),
        "34f0702c5b32738ef04f9969a5f2a453cdab1f10278a563f3b2b361238cc7d8f"),
    "conserved-float-n8": (
        ("conserved", "--point", '{"n": 8, "z": [1.5, 0.5, 2, 0.75, 1.25, 3, 0.6, 1.1], '
                                 '"Q": [-0.3, 0.2, -0.7, 0.4, -0.1, 0.25, -0.5, 0.35]}'),
        "2dfd50d0e158da90afce6163bcc167bb88d226fa7c3c1ca3d306c2a88c48892e"),
    "backlund-exact-orbit": (
        ("backlund", "--route", "both", "--steps", "8", "--point",
         '{"n":4,"z":["2","-3","5/2","7"],"Q":["1/3","2/5","-1/2","3/7"]}'),
        "2b75a02c8dcd9dc90554dd6dccecb025710b796e0baa5720dc0e0ec1d736b51d"),
    "lax-exact": (("lax", "--point", EXACT_N3),
                  "917bfb903633acf05ff2797253241108aed28d540871a644055806204b11b6d0"),
    "lax-float": (("lax", "--point", '{"n":3,"z":[1.5,0.5,2.0],"Q":[-0.3,0.2,-0.7]}'),
                  "c007a9cdc9ab3dc316fa089caef80f6772d16cd1ada575df059540e058b71f1f"),
    # q = p = 0 takes only exp(0) and sqrt, so these bytes do not depend on libm
    "canonical": (("canonical", "--point", '{"q":[0,0,0],"p":[0,0,0]}'),
                  "13ff9f456c3238335385e04d7ebdb41056fb6b2642d27d1d5f70845d13d6a3c8"),
}

#: n: sha256 over repr(list(f_poly(n, i, mode).terms.items())) + "\n" for
#: i = 0..2n, the same in both modes.  Float evaluate sums the terms in
#: storage order, so the order is pinned too.  Taken from the LaurentPoly
#: ring recursion (test_conserved.f_poly_by_ring).
F_POLY_GOLDEN = {
    1: "5050c9d412ab2a349b08fb8500a6ca064b91234b3cd05a7a88a666c9decab6f8",
    2: "67b06d1422ccec4a7fa67071cb5808be915400cb17174cf521c45123751b1cad",
    3: "cf690a9904e1e8d5c58abb00664a5e5921103ba5695461d588108ac6de39ca6b",
    4: "8c35769cb3fc8c76133c698443e423a44ed0b7bd31c00c8bc6cba5808b413eb6",
    5: "fef87a9dc437d751268132368d14ccbf026abe089dfa11dc7b59228bd973e45a",
    6: "d732d1bda7931f45913b7b3dd00a6d4f5d4d022f9d27bbde242a1cc854aec246",
}

#: sha256 over the float.hex() of F_0..F_2n by the path formula, one line a
#: rank, at n = 1..6.  It was taken when evaluate still multiplied from a
#: cached table of powers, so it pins these bits apart from
#: test_laurent.evaluate_term_by_term, which is now the same loop as evaluate
FLOAT_PATH_GOLDEN = "60803cc22a18cdc60c75803f6a76905fea646ab858548ba25ee0fdfb8a9b59bb"


def run(argv) -> str:
    """sha256 of the stdout of ``toda-bn *argv``, run in this process through
    ``cli.main``, or "exit N" if it exits N != 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return hashlib.sha256(out.getvalue().encode()).hexdigest() if code == 0 else f"exit {code}"


def f_poly_digest(n: int, mode: str) -> str:
    digest = hashlib.sha256()
    for i in range(2 * n + 1):
        digest.update(repr(list(f_poly(n, i, mode).terms.items())).encode() + b"\n")
    return digest.hexdigest()


def float_path_digest() -> str:
    digest = hashlib.sha256()
    for n in range(1, 7):
        x = PhasePoint(n, tuple((-1) ** k * (1 + 0.1 * k) for k in range(n)),
                       tuple(0.3 - 0.15 * k for k in range(n)))
        digest.update(repr([v.hex() for v in conserved_values_by_path(x)]).encode() + b"\n")
    return digest.hexdigest()


def _checks():
    for name, (argv, digest) in CLI_GOLDEN.items():
        yield name, functools.partial(run, argv), digest
    for n, digest in F_POLY_GOLDEN.items():
        for mode in ("original", "improved"):
            yield f"f_poly-n{n}-{mode}", functools.partial(f_poly_digest, n, mode), digest
    yield "float-path", float_path_digest, FLOAT_PATH_GOLDEN


#: every check as (name, function giving the digest, pinned digest)
CHECKS = tuple(_checks())


def main() -> int:
    os.environ.pop("TODA_BN_SEED", None)
    for name, compute, digest in CHECKS:
        got = compute()
        if got != digest:
            print(f"golden: {name}: got {got}, pinned {digest}", file=sys.stderr)
            return 1
    print(f"golden: {len(CHECKS)} digests hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
