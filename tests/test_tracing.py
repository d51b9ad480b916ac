"""perfbench's per-layer tracer against the package's current bindings.

``perfbench/run.py --trace 1`` wraps every layer function wherever a module
binds it by name.  A refactor that renames or rebinds one of them would
leave an unwrapped original behind; this test sees that without running
the benchmark.  The tracer module is loaded from its file and not changed.
"""

import contextlib
import importlib.util
import io
import json
import random
import sys
from pathlib import Path

import pytest

import toda_bn.cli  # noqa: F401  (loads every toda_bn module, as run.py does)
from toda_bn import backlund, cli, conserved, lax, verify
from toda_bn.errors import TodaError

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave no cache file next to it
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def test_tracer_wraps_every_binding_and_restores_them():
    tracing = load_tracing()
    checks, build_lax = verify.IDENTITY_CHECKS, lax.build_lax
    tracer = tracing.Tracer()
    try:
        assert tracer.install() == []
        assert verify.IDENTITY_CHECKS is not checks
        assert lax.build_lax is not build_lax
    finally:
        tracer.uninstall()
    assert verify.IDENTITY_CHECKS is checks
    assert lax.build_lax is build_lax


def _orbit():
    """A 2-step exact orbit on both Backlund routes, with conserved_values,
    as one step of the backlund-orbit workload makes its calls."""
    rng = random.Random(7)
    while True:
        x = verify.random_point(3, rng)
        try:
            points = [x, x]
            for _ in range(2):
                points = [backlund.backlund_map(points[0]),
                          backlund.backlund_conjugate(points[1])]
                values = [conserved.conserved_values(p) for p in points]
        except TodaError:
            continue
        assert points[0] == points[1] and values[0] == values[1]
        return


def _cli(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(list(argv)) == 0


def _flow():
    h = 2.0 ** -10
    for n in (3, 8):
        init = {"q": [0.1 * (i % 3) - 0.1 for i in range(n)],
                "p": [0.05 * i - 0.2 for i in range(n)]}
        _cli("simulate", "--init", json.dumps(init), "--T", repr(4 * h), "--h", repr(h))


def _verify_suite():
    for mode in ("rational", "float"):
        _cli("verify", "--mode", mode, "--seed", "3", "--n-max", "2", "--trials", "1")


@pytest.mark.parametrize("workload, run", [("backlund-orbit", _orbit), ("flow", _flow),
                                           ("verify-suite", _verify_suite)])
def test_each_workload_reaches_every_pinned_layer_and_call_edge(workload, run):
    # The benchmark's traced run fails when a layer of USED_ON or a call
    # edge of REBOUND_CALLS shows no calls; a small run of each workload's
    # calls must show them all.
    tracing = load_tracing()
    tracer = tracing.Tracer()
    try:
        assert tracer.install() == []
        run()
    finally:
        tracer.uninstall()
    assert tracer.passivity_failures(workload) == []
