import random
from fractions import Fraction

import pytest

from toda_bn import PhasePoint, dynamics


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
