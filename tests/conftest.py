import random
from fractions import Fraction

import pytest

from toda_bn import PhasePoint, dynamics


def trace(kind: str, n: int, fn, *extra: str):
    """fn's run as straight-line code ``kind(z0.., q0.., *extra)``, for rank n.

    The single-call form of the RK4 and chain-sum tapes, which the compiled
    loops of ``dynamics`` run over the steps: see dynamics._straight_line; a
    division by a zero z_i in the kernel raises ZeroBaseError.
    """
    names, body, out = dynamics._straight_line(n, fn, extra)
    return dynamics._define(kind, n, names,
                            [*body, f"return ({''.join(v + ', ' for v in out)})"])


def run_identity(name, seed=7):
    """The identity `name` as `verify --seed seed --n-max 4 --trials 5` runs it."""
    from toda_bn import verify

    index = [n for n, _, _ in verify.IDENTITY_CHECKS].index(name)
    _, mode, check = verify.IDENTITY_CHECKS[index]
    cfg = verify.VerifySuiteConfig(n_max=4, trials=5, seed=seed, mode=mode)
    return check(cfg, verify.identity_rng(seed, index))


@pytest.fixture
def rng():
    return random.Random(20260810)


@pytest.fixture
def worked_point():
    """The fully worked n = 2 point used throughout the checks."""
    return PhasePoint(2, (Fraction(2), Fraction(3)), (Fraction(1, 2), Fraction(1, 5)))


@pytest.fixture
def fresh_kernels():
    """Empties the compiled-kernel caches before and after the test, so that
    a test that patches a traced function (dynamics._rk4_step,
    dynamics._chain_sums) runs it through freshly compiled loops and leaves
    no patched kernel behind."""
    kernels = (dynamics._rk4_loop_kernel, dynamics._trajectory_kernel)
    for kernel in kernels:
        kernel.cache_clear()
    yield
    for kernel in kernels:
        kernel.cache_clear()
