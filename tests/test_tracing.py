"""perfbench's per-layer tracer against the package's current bindings.

``perfbench/run.py --trace 1`` wraps every layer function wherever a module
binds it by name.  A refactor that renames or rebinds one of them would
leave an unwrapped original behind; this test sees that without running
the benchmark.  The tracer module is loaded from its file and not changed.
"""

import importlib.util
import sys
from pathlib import Path

import toda_bn.cli  # noqa: F401  (loads every toda_bn module, as run.py does)
from toda_bn import lax, verify

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
