"""Continuous flow of the chain in its three equivalent presentations.

* Lax form:      dL/dt = [L, pi_plus(L)];
* coordinates:   rational ODEs for (z_i, Q_i) with boundary conventions
                 Q_0 = z_0 = 0;
* Hamiltonian:   u' = {u, H} with H = F_1 = tr L and the log-canonical
                 bracket {Q_i, z_i} = Q_i z_i, {Q_i, z_{i+1}} = -Q_i z_{i+1}.

A canonical chart (q, p) with Q_i = -exp(q_i - q_{i+1}), q_{n+1} = 0 and
q_0 = -infinity turns the bracket into the standard one and H into the
type-B relativistic Toda Hamiltonian 2 sum_i cosh(p_i) sqrt(...) sqrt(...).

Numerical integration is fixed-step RK4 in the (z, Q) chart, where the
right-hand side is rational.  The rates (_rates, the formulas of
hamilton_rhs's docstring), the RK4 step (_rk4_step) and the drift's F(t)
(conserved._chain_sums) are each written once, under the ring contract
below, and hamilton_rhs runs _rates as it is.  The RK4 step and the
chain-sum pass run once per rank, on first use, over a recording scalar
(_Traced), and _straight_line writes each tape out as straight-line code
in the same grouping, every constant a float literal, so the kernels do
float arithmetic only and float results keep their bits.  Two kernels
run the RK4 tape as one loop over the steps, the state in their locals
and the Z_WINDOW test inline: _rk4_loop_kernel for rk4_endpoint, which
keeps no state but the last, and _trajectory_kernel for integrate, which
after each step also runs the chain-sum tape and the drift.  (The tests
compile one tape as a single call, from _straight_line and _define, to
check the loops step by step.)  Tracing and compiling take about
2, 6 and 35-40 ms at n = 3, 8 and 50 for the RK4 loop, and about 3,
8-13 and 320 ms for the trajectory loop, whose chain-sum tape grows
faster than n^2 (1, 4-7 and 190-280 ms of it).  A step then takes about
3.4-4, 10-15 and 40-90 us in the RK4 loop (best of 5 on a shared 2-core
Xeon, Python 3.11.7, whose speed varied up to 1.5x between runs).

integrate stores a trajectory flat (Trajectory): the loop hands each
state's row, one tuple (z_1..z_n, Q_1..Q_n, drift), to one array('d')'s
extend, so a state is 2n + 1 binary64 values, stored in the order of
simulate's CSV columns.

The exact factorization solution
L(t) = a(t) L0 a(t)^{-1} with exp(L0 t) = a^{-1} b provides an
independent route for cross-checking trajectories.

The ring contract.  The ring-generic builders (lax._lax_rows,
_inverse_by_gamma2, _c_rows and _bidiagonal_inverse; _poisson_rows and
_rates here; conserved._chain_sums) use only this much of their scalars:

* ``+ - * /`` and negation, where only _rates and _rk4_step divide;
* int literals only as operands (``1 - q``, ``2 * k``), never as stored
  entries: a stored unit is an argument (``one``, ``zero``), and 1/z_k
  arrives as ``zinv``.  No builder makes a scalar from a type;
* comparisons with zero only where a builder branches; none does now.

So each runs over Fraction, float, _Dual and _Traced, and each but
_rates, which divides by z_k, over LaurentPoly.
"""

from __future__ import annotations

import array
import collections
import functools
import math
import operator
from typing import Sequence

from .conserved import _chain_sums, conserved_values, conserved_values_by_path
from .errors import ModeError, OutOfChartError, StepBlowupError, ZeroBaseError
from .lax import PhasePoint, _Record, _lax_rows, build_lax, parameters_from_lax
from .linalg import _UNITS, SquareMatrix, coerce_scalar, conjugate, mat_exp
from .splitting import factor_minus_plus, project

#: Trajectories must keep every |z_i| inside this window.
Z_WINDOW = (1e-12, 1e12)


class CanonicalPoint(_Record):
    """Canonical coordinates (q_1..q_n, p_1..p_n) of the real chart."""

    __slots__ = ("q", "p")
    _fields = ("q", "p")

    def __init__(self, q: tuple, p: tuple):
        if len(q) != len(p) or not q:
            raise ValueError("q and p must be nonempty and of equal length")
        q = tuple(coerce_scalar(v, "float") for v in q)
        p = tuple(coerce_scalar(v, "float") for v in p)
        if not all(math.isfinite(v) for v in (*q, *p)):
            raise ValueError("coordinates must be finite")
        super().__init__(q, p)

    @property
    def n(self) -> int:
        return len(self.q)


class Trajectory(_Record):
    """Fixed-step trajectory with per-state conserved-quantity drift.

    Stored flat, as binary64 values in one ``array('d')``: ``values``
    holds each state's row (z_1..z_n, Q_1..Q_n, drift) in turn, x0 first.
    ``times``, ``states`` and ``drifts`` are tuples read from it:
    ``states`` is built on first read and kept, the other two are built
    at each read.  t_k is k h.

    ``drifts[k]`` is max_i |F_i(t_k) - F_i(0)| / max(1, |F_i(0)|), with
    drifts[0] = 0.  F_i(0) comes from a reference route (the path formula
    for n <= 3, char_poly above it; see _reference_values), as floats, and
    F_i(t_k) from the chain-sum pass, compiled per rank with the pass's
    bits, so a drift is the flow's error plus the gap between the two
    routes.
    """

    _fields = ("n", "h", "values")

    def __init__(self, n: int, h: float, values: array.array):
        super().__init__(n, h, values)

    @property
    def times(self) -> tuple:
        return tuple(k * self.h for k in range(len(self.values) // (2 * self.n + 1)))

    @functools.cached_property
    def states(self) -> tuple:
        n = self.n
        return tuple(PhasePoint._trusted(n, s[:n], s[n:-1]) for s in self.rows())

    @property
    def drifts(self) -> tuple:
        return tuple(self.values[2 * self.n::2 * self.n + 1])

    @property
    def max_drift(self) -> float:
        return max(self.drifts)

    def rows(self):
        """Each state's (z_1..z_n, Q_1..Q_n, drift) as a tuple, x0 first."""
        return zip(*[iter(self.values)] * (2 * self.n + 1))


def lax_rhs(L: SquareMatrix) -> SquareMatrix:
    """Right-hand side [L, pi_plus(L)] of the Lax equation."""
    return L.commutator(project(L).plus)


def hamilton_rhs(x: PhasePoint) -> tuple[tuple, tuple]:
    """Time derivatives (dQ, dz) of the coordinates.

    For 1 <= i < n (with Q_0 = 0, and the z_0 term absent):

        Q_i'/Q_i = -(1-Q_{i-1}) z_i^{-1} + (1-Q_i)(z_i + z_{i+1}^{-1})
                   - (1-Q_{i+1}) z_{i+1}
        z_i'/z_i = Q_i (z_i + z_{i+1}^{-1}) - Q_{i-1} (z_{i-1} + z_i^{-1})

    and at the boundary i = n:

        Q_n'/Q_n = (1-Q_n) z_n - (1-Q_{n-1}) z_n^{-1}
        z_n'/z_n = Q_n z_n - Q_{n-1} (z_{n-1} + z_n^{-1})
    """
    rates = _rates(x.n, x.z, x.Q)
    return rates[x.n:], rates[:x.n]


def _rates(n: int, z: Sequence, Q: Sequence) -> tuple:
    """The rates (dz_1..dz_n, dQ_1..dQ_n) of hamilton_rhs, in a field (see the ring contract).

    Each shared sum s_i = z_i + 1/z_{i+1} and each 1 - Q_i is formed once.
    1 - Q_0 is the int 1 and the absent z_0 term is skipped, so exact points
    stay Fraction, and every rate is grouped as hamilton_rhs's formula
    groups it, so float rates keep their bits.
    """
    p = [1] + [1 - q for q in Q]  # 1 - Q_i for i = 0..n
    s = [z[i] + 1 / z[i + 1] for i in range(n - 1)]
    dz = []
    dQ = []
    for i in range(n):
        if i < n - 1:
            rate = -p[i] / z[i] + p[i + 1] * s[i] - p[i + 2] * z[i + 1]
            right = Q[i] * s[i]
        else:
            rate = p[i + 1] * z[i] - p[i] / z[i]
            right = Q[i] * z[i]
        if i:
            right = right - Q[i - 1] * s[i - 1]
        dz.append(z[i] * right)
        dQ.append(Q[i] * rate)
    return (*dz, *dQ)


def _recorders(op: str):
    """The forward and reflected _Traced methods that record ``a op b``."""
    def forward(self, other):
        return _Traced.node(self.tape, (op, self.index, _operand(other)))

    def reflected(self, other):
        return _Traced.node(self.tape, (op, _operand(other), self.index))

    return forward, reflected


class _Traced:
    """A float variable of straight-line code being recorded.

    Ring-generic code run over _Traced inputs records each ``+ - * /`` and
    negation it does with a traced operand as one node ``(op, a, b)`` of a
    tape, operands in source order: a node's index or a constant's repr,
    with ``a`` None for a negation.  Constants, the units a builder is
    given among them, stay plain ints and floats, so only constant-only
    subexpressions fold, by float arithmetic itself, while ``0.0 + x`` is
    recorded, because it turns -0.0 into 0.0.
    """

    __slots__ = ("index", "tape")

    @classmethod
    def node(cls, tape: list, entry: tuple) -> "_Traced":
        self = object.__new__(cls)
        self.index = len(tape)
        self.tape = tape
        tape.append(entry)
        return self

    __add__, __radd__ = _recorders("+")
    __sub__, __rsub__ = _recorders("-")
    __mul__, __rmul__ = _recorders("*")
    __truediv__, __rtruediv__ = _recorders("/")

    def __neg__(self):
        return _Traced.node(self.tape, ("-", None, self.index))


def _operand(v):
    """A tape operand: a traced value's node index, or a constant's repr."""
    return v.index if isinstance(v, _Traced) else repr(v)


class _Dual:
    """A value with its tangent along one direction: forward-mode
    differentiation (Griewank and Walther, Evaluating Derivatives, ch. 3).

    Ring-generic code run over _Dual inputs returns f(x) with the tangent
    f'(x) dx, where dx are the inputs' tangents, each ``+ - * /`` and
    negation applying its own derivative rule.  An operand that is not a
    _Dual is a constant, with tangent zero.  Over Fraction both parts are
    exact.
    """

    __slots__ = ("value", "tangent")

    def __init__(self, value, tangent):
        self.value = value
        self.tangent = tangent

    def __add__(self, other):
        if isinstance(other, _Dual):
            return _Dual(self.value + other.value, self.tangent + other.tangent)
        return _Dual(self.value + other, self.tangent)

    __radd__ = __add__

    def __neg__(self):
        return _Dual(-self.value, -self.tangent)

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, _Dual):
            return _Dual(self.value * other.value,
                         self.tangent * other.value + self.value * other.tangent)
        return _Dual(self.value * other, self.tangent * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, _Dual):
            q = self.value / other.value
            return _Dual(q, (self.tangent - q * other.tangent) / other.value)
        return _Dual(self.value / other, self.tangent / other)

    def __rtruediv__(self, other):
        q = other / self.value
        return _Dual(q, -q * self.tangent / self.value)


def lax_along_flow(x: PhasePoint) -> tuple[SquareMatrix, SquareMatrix]:
    """L(x) and its time derivative dL/dt along the coordinate flow.

    The chain rule through L's formula: one pass of ``lax._lax_rows`` over
    _Dual coordinates, z and Q seeded with the tangents dz and dQ of
    ``hamilton_rhs(x)``.  The value part is ``build_lax(x)``; at an exact
    point both parts are exact.  Nothing here uses the Lax equation, so
    comparing dL/dt with ``lax_rhs(L)`` checks it.
    """
    dQ, dz = hamilton_rhs(x)
    z = [_Dual(v, t) for v, t in zip(x.z, dz)]
    Q = [_Dual(v, t) for v, t in zip(x.Q, dQ)]
    one, zero = _UNITS[x.mode]
    rows = _lax_rows(x.n, z, [1 / w for w in z], [q * w for q, w in zip(Q, z)], one, zero)
    value = tuple(tuple(v.value if isinstance(v, _Dual) else v for v in row) for row in rows)
    tangent = tuple(tuple(v.tangent if isinstance(v, _Dual) else zero for v in row)
                    for row in rows)
    return SquareMatrix._trusted(value, x.mode), SquareMatrix._trusted(tangent, x.mode)


#: Inlined expressions nest at most this deep; the parser allows 200 parentheses.
_MAX_DEPTH = 16

#: The precedence of each recorded operation; a negation binds tighter
#: than every binary one, and a name or constant tighter still.
_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3}
_ATOM = 4


def _straight_line(n: int, fn, extra: tuple, temp: str = "t") -> tuple[list, list, list]:
    """fn's run as straight-line code: (parameter names, body lines, outputs).

    fn runs once over one _Traced input per name, z0.., q0.. and then
    ``extra``, and returns a tuple.  A node used exactly once, the return
    counting as a use, is written inline into its user, up to _MAX_DEPTH
    levels deep.  Every other node, unused ones too (a division may
    raise), gets its own line ``tK = a op b``, with ``temp`` for t.  A
    constant is written as the float literal of its value (``1`` as
    ``1.0``), so every operation has float operands only: an int operand
    would be converted to the same float, on CPython's slower generic
    path.  An inlined operand is
    parenthesised where precedence needs it: a left operand of lower
    precedence than its operation, a right operand of lower or equal
    precedence (every operation groups to the left), and a negation's
    compound operand.  So the code's grouping is the tape's, and it redoes
    fn's float run bit for bit.  Each output is the text of an expression.
    """
    names = [f"z{i}" for i in range(n)] + [f"q{i}" for i in range(n)] + list(extra)
    tape: list[tuple] = []
    inputs = [_Traced.node(tape, (None, name, None)) for name in names]
    out = [_operand(v) for v in fn(*inputs)]
    operands = [v for _, a, b in tape for v in (a, b)] + out
    uses = collections.Counter(v for v in operands if type(v) is int)
    text = {}  # node k as its users write it: a name, or its expression if inlined
    precedence = {}  # an inlined node's precedence; every other operand is an atom
    depth = {}
    body = []

    def operand(v, tightest: int) -> str:
        """v's text, in parentheses if it binds less tightly than ``tightest``."""
        if type(v) is str:
            return repr(float(v))
        t = text[v]
        return f"({t})" if precedence.get(v, _ATOM) < tightest else t

    for k, (op, a, b) in enumerate(tape):
        if op is None:
            text[k] = a
            continue
        if a is None:
            prec = _PRECEDENCE["neg"]
            expr = f"-{operand(b, prec)}"
        else:
            prec = _PRECEDENCE[op]
            expr = f"{operand(a, prec)} {op} {operand(b, prec + 1)}"
        d = 1 + max(depth.get(a, 0), depth.get(b, 0))
        if uses[k] == 1 and d < _MAX_DEPTH:
            text[k], precedence[k], depth[k] = expr, prec, d
        else:
            text[k] = f"{temp}{k}"
            body.append(f"{temp}{k} = {expr}")
    return names, body, [operand(v, 0) for v in out]


def _define(kind: str, n: int, params: list, lines: list):
    """Compile ``def kind(*params)`` with the body ``lines``, in which a
    ZeroDivisionError raises ZeroBaseError."""
    source = [f"def {kind}({', '.join(params)}):", "    try:",
              *("        " + line for line in lines),
              "    except ZeroDivisionError:",
              "        raise ZeroBaseError('all z_i must be nonzero') from None"]
    namespace = {"ZeroBaseError": ZeroBaseError}
    exec(compile("\n".join(source), f"<toda_bn {kind} n={n}>", "exec"), namespace)
    return namespace[kind]


def _chain_sums_traced(n: int):
    """The float pass of conserved._chain_sums at rank n, as a function
    of (z_1..z_n, Q_1..Q_n) -> F_0..F_2n, for tracing."""
    return lambda *s: _chain_sums(n, s[:n], [1 / v for v in s[:n]], s[n:], 1.0, 0.0)


def _poisson_rows(n: int, z: Sequence, Q: Sequence, zero) -> list[list]:
    """The rows of Pi over u = (Q_1..Q_n, z_1..z_n), in a ring (see the ring contract).

    {Q_i, z_i} = Q_i z_i and {Q_i, z_{i+1}} = -Q_i z_{i+1} are the only
    brackets that are not zero (``zero``), up to antisymmetry.
    """
    rows = [[zero] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        rows[i][n + i] = Q[i] * z[i]
        rows[n + i][i] = -rows[i][n + i]
        if i + 1 < n:
            rows[i][n + i + 1] = -Q[i] * z[i + 1]
            rows[n + i + 1][i] = -rows[i][n + i + 1]
    return rows


def poisson_structure(x: PhasePoint) -> SquareMatrix:
    """Structure matrix Pi over u = (Q_1..Q_n, z_1..z_n) at x.

    Pi[a, b] = {u_a, u_b}; the bracket of two functions is grad(f) . Pi . grad(g).
    """
    rows = _poisson_rows(x.n, x.z, x.Q, _UNITS[x.mode][1])
    return SquareMatrix._trusted(tuple(map(tuple, rows)), x.mode)


def hamiltonian(x: PhasePoint):
    """H = F_1 = tr L = sum_i (1-Q_i) z_i + sum_i (1-Q_{i-1}) z_i^{-1}."""
    Qb = (_UNITS[x.mode][1],) + x.Q
    # reduce, not sum(): sum() compensates float sums from Python 3.12 on,
    # and in-order sums give the same bits on every version
    up = ((1 - x.Q[i]) * x.z[i] for i in range(x.n))
    down = ((1 - Qb[i]) / x.z[i] for i in range(x.n))
    return functools.reduce(operator.add, up, 0) + functools.reduce(operator.add, down, 0)


# -- canonical chart ---------------------------------------------------------


def _chart_exponentials(q: Sequence[float]) -> list[float]:
    """E_i = exp(q_i - q_{i+1}) for i = 0..n with q_0 = -inf, q_{n+1} = 0.

    E_0 is literally 0 (never a large-negative-exponent approximation).
    """
    n = len(q)
    E = [0.0]
    for i in range(1, n + 1):
        nxt = q[i] if i < n else 0.0
        E.append(math.exp(q[i - 1] - nxt))
    return E


def to_phase(c: CanonicalPoint) -> PhasePoint:
    """Chart map: Q_i = -E_i, z_i = exp(p_i) sqrt((1+E_{i-1})/(1+E_i))."""
    n = c.n
    E = _chart_exponentials(c.q)
    Q = tuple(-E[i] for i in range(1, n + 1))
    z = tuple(math.exp(c.p[i - 1]) * math.sqrt((1 + E[i - 1]) / (1 + E[i]))
              for i in range(1, n + 1))
    return PhasePoint(n, z, Q)


def from_phase(x: PhasePoint) -> CanonicalPoint:
    """Inverse chart map; requires all Q_i < 0 and z_i > 0."""
    xf = x.to_float()
    if any(q >= 0 for q in xf.Q) or any(z <= 0 for z in xf.z):
        raise OutOfChartError("canonical chart needs Q_i < 0 and z_i > 0")
    n = x.n
    q = [0.0] * (n + 1)  # q[n] is the convention q_{n+1} = 0
    for i in range(n - 1, -1, -1):
        nxt = q[i + 1] if i + 1 < n else 0.0
        q[i] = math.log(-xf.Q[i]) + nxt
    q = q[:n]
    E = _chart_exponentials(q)
    p = tuple(math.log(xf.z[i - 1]) - 0.5 * math.log((1 + E[i - 1]) / (1 + E[i]))
              for i in range(1, n + 1))
    return CanonicalPoint(tuple(q), p)


def hamiltonian_canonical(c: CanonicalPoint) -> float:
    """H = 2 sum_i cosh(p_i) sqrt(1+E_{i-1}) sqrt(1+E_i) on the chart."""
    E = _chart_exponentials(c.q)
    terms = (math.cosh(c.p[i - 1]) * math.sqrt(1 + E[i - 1]) * math.sqrt(1 + E[i])
             for i in range(1, c.n + 1))
    # in-order, as hamiltonian adds
    return 2 * functools.reduce(operator.add, terms, 0)


def chart_brackets(c: CanonicalPoint):
    """Coordinate brackets induced by the canonical chart, via analytic Jacobians.

    Returns (QQ, Qz, zz) with QQ[i][j] = {Q_i, Q_j} etc., computed from
    {f, g} = sum_k (df/dq_k dg/dp_k - df/dp_k dg/dq_k).  Q depends only on
    q and dz_j/dp_k = delta_jk z_j, so only d/dq Jacobians are needed.
    """
    n = c.n
    x = to_phase(c)
    E = _chart_exponentials(c.q)
    dQdq = [[0.0] * n for _ in range(n)]
    for i in range(1, n + 1):
        dQdq[i - 1][i - 1] = x.Q[i - 1]
        if i < n:
            dQdq[i - 1][i] = -x.Q[i - 1]
    dlogzdq = [[0.0] * n for _ in range(n)]
    for j in range(1, n + 1):
        lo = E[j - 1] / (1 + E[j - 1])
        hi = E[j] / (1 + E[j])
        if j >= 2:
            dlogzdq[j - 1][j - 2] = 0.5 * lo
        dlogzdq[j - 1][j - 1] = -0.5 * lo - 0.5 * hi
        if j < n:
            dlogzdq[j - 1][j] = 0.5 * hi
    QQ = [[0.0] * n for _ in range(n)]
    Qz = [[dQdq[i][j] * x.z[j] for j in range(n)] for i in range(n)]
    zz = [[dlogzdq[i][j] * x.z[i] * x.z[j] - x.z[i] * dlogzdq[j][i] * x.z[j]
           for j in range(n)] for i in range(n)]
    return QQ, Qz, zz


# -- numerical flow -----------------------------------------------------------


def _rk4_step(n: int, state: Sequence, h) -> tuple:
    """One classical RK4 step of the rates from state = (z_1..z_n, Q_1..Q_n).

    The stage points are s + h/2 k and s + h k, and the step is
    s + h/6 (a + 2 b + 2 c + d), in the order and grouping of the textbook.
    """
    def rates(point):
        return _rates(n, point[:n], point[n:])

    half = 0.5 * h
    a = rates(state)
    b = rates([v + half * k for v, k in zip(state, a)])
    c = rates([v + half * k for v, k in zip(state, b)])
    d = rates([v + h * k for v, k in zip(state, c)])
    sixth = h / 6.0
    return tuple(v + sixth * (ka + 2 * kb + 2 * kc + kd)
                 for v, ka, kb, kc, kd in zip(state, a, b, c, d))


def _rk4_traced(n: int):
    """_rk4_step at rank n as a function of (z_1..z_n, Q_1..Q_n, h), for tracing."""
    return lambda *s: _rk4_step(n, s[:-1], s[-1])


def _rk4_loop(kind: str, n: int, params: list, each: list):
    """Compile ``kind(z_1..z_n, Q_1..Q_n, h, steps, *params) -> (k, state)``:
    up to ``steps`` _rk4_step steps for rank n, as one loop over the RK4 tape.

    The state lives in the loop's locals, z0.. and q0.., and the loop stops
    after the first step k whose state has a |z_i| outside Z_WINDOW (NaN
    included), or after step ``steps``.  The lines ``each`` run after
    every step whose state is inside the window.  Each step does the
    operations of _rk4_step's float run, so the state's floats are its,
    bit for bit.
    """
    names, body, out = _straight_line(n, _rk4_traced(n), ("h",))
    state = "".join(v + ", " for v in names[:2 * n])
    lo, hi = Z_WINDOW
    inside = " and ".join(f"({lo!r} <= {z} <= {hi!r} or {-hi!r} <= {z} <= {-lo!r})"
                          for z in names[:n])
    return _define(kind, n, [*names, "steps", *params], [
        "for k in range(1, steps + 1):",
        *("    " + line for line in body),
        f"    {state}= {', '.join(out)}",
        f"    if not ({inside}):",
        f"        return k, ({state})",
        *("    " + line for line in each),
        f"return steps, ({state})"])


@functools.lru_cache(maxsize=None)
def _rk4_loop_kernel(n: int):
    """rk4_loop(z_1..z_n, Q_1..Q_n, h, steps) -> (k, state), the RK4 loop alone."""
    return _rk4_loop("rk4_loop", n, [], [])


@functools.lru_cache(maxsize=None)
def _trajectory_kernel(n: int):
    """trajectory(z_1..z_n, Q_1..Q_n, h, steps, r_0..r_2n, s_0..s_2n, keep)
    -> (k, state): the RK4 loop, which passes each state it keeps to
    ``keep`` as one tuple (z_1..z_n, Q_1..Q_n, drift), the drift being
    max_i |F_i - r_i| / s_i.

    F_0..F_2n come from the chain-sum tape (_chain_sums_traced), run on the
    state in the loop, and the drift's operations are in index order, so
    max keeps a NaN where it stands.
    """
    names, sums, f = _straight_line(n, _chain_sums_traced(n), (), "u")
    r, s = ([f"{v}{i}" for i in range(2 * n + 1)] for v in "rs")
    drift = "".join(f"abs({x} - {a}) / {b}, " for x, a, b in zip(f, r, s))
    return _rk4_loop("trajectory", n, [*r, *s, "keep"], [
        *sums, f"keep(({''.join(v + ', ' for v in names)}max(({drift})), ))"])


def _check_window(n: int, state: tuple, t: float):
    lo, hi = Z_WINDOW
    for i in range(n):
        if not (lo <= abs(state[i]) <= hi):
            raise StepBlowupError(
                f"|z_{i + 1}| = {abs(state[i])!r} left [{lo:g}, {hi:g}] at t={t}")


def step_count(T: float, h: float, names: tuple[str, str] = ("T", "h")) -> int:
    """The number of RK4 steps of size h that end at time T.

    Raises ValueError unless T and h are finite, T >= 0, h > 0, T/h is
    below 2^52 and T/h is within 1e-9 of a whole number; ``names`` are how
    the messages call T and h.  From 2^52 on every float is a whole
    number, so the last test could not fail there.
    """
    t_name, h_name = names
    if not (math.isfinite(T) and math.isfinite(h)):
        raise ValueError(f"{t_name} and {h_name} must be finite")
    if h <= 0:
        raise ValueError(f"{h_name} must be positive")
    if T < 0:
        raise ValueError(f"{t_name} must be >= 0")
    steps = T / h
    if not steps < 2.0 ** 52:
        raise ValueError(f"{t_name} {T!r} is {steps!r} steps of {h_name} {h!r}; "
                         "the count must be below 2**52")
    if abs(steps - round(steps)) > 1e-9:
        raise ValueError(f"{t_name} {T!r} is not a whole number of {h_name} {h!r} steps")
    return round(steps)


def _initial_state(x0: PhasePoint, T: float, h: float) -> tuple[int, tuple]:
    """(step_count(T, h), (z_1..z_n, Q_1..Q_n) of x0), once x0 is checked
    as integration needs it: float mode, every |z_i| inside Z_WINDOW."""
    if x0.mode != "float":
        raise ModeError("integration runs in float mode")
    steps = step_count(T, h)
    state = tuple(x0.z) + tuple(x0.Q)
    _check_window(x0.n, state, 0.0)
    return steps, state


def rk4_endpoint(x0: PhasePoint, T: float, h: float) -> PhasePoint:
    """Endpoint of the RK4 flow, without trajectory or drift bookkeeping.

    T and h follow integrate's rules, and a state outside Z_WINDOW raises
    integrate's StepBlowupError, at the same t.  The steps run as one
    compiled loop (_rk4_loop_kernel).
    """
    steps, state = _initial_state(x0, T, h)
    n = x0.n
    k, state = _rk4_loop_kernel(n)(*state, h, steps)
    _check_window(n, state, k * h)
    return PhasePoint._trusted(n, state[:n], state[n:])


def _reference_values(x0: PhasePoint) -> tuple:
    """F_0..F_2n of x0 by integrate's reference route: the path formula
    (conserved_values_by_path) for n <= 3, char_poly (conserved_values)
    above it.

    From n = 4 on char_poly is the cheaper route: a warm call took 0.10
    against 0.8 ms at n = 4, 0.15 against 3.9 ms at n = 5 and 0.21
    against 21 ms at n = 6, and the path formula also pays its first use,
    which expands the F_i: 12-15, 54-59 and 290-313 ms (raw best of 5 at a
    float canonical-chart point, shared 2-core Xeon, Python 3.11.7).  At
    n = 3 a warm call took 0.06 ms by char_poly and 0.16-0.23 ms by the
    path formula (2.5-3.0 ms for its first use), which there keeps the
    drift bits of n <= 3 and the flow's traced call into the laurent
    layer.  Both routes are exact in exact arithmetic;
    against the exact F_i at the same float point (30 chart points a rank)
    the worst relative error at n = 4..6 was 2.1e-14 by char_poly and
    6.0e-15 by the path formula, far inside the drift's bounds.
    """
    route = conserved_values_by_path if x0.n <= 3 else conserved_values
    return route(x0)


def integrate(x0: PhasePoint, T: float, h: float = 1e-3) -> Trajectory:
    """Classical fixed-step RK4 flow from x0 over [0, T].

    The returned trajectory stores every accepted state together with the
    relative drift of the conserved quantities against their initial
    values.  Raises ValueError unless T is a whole number of h steps (see
    step_count), and StepBlowupError when a |z_i| of x0 or of a later
    state lies outside Z_WINDOW.  The steps, F(t) and the drifts run as
    one compiled loop (_trajectory_kernel).
    """
    steps, state = _initial_state(x0, T, h)
    n = x0.n
    # F(0) by the reference route of the rank (_reference_values), F(t) by
    # the compiled chain-sum pass (see Trajectory).  F(0) keeps the rank
    # switch because the two routes make different calls, which the
    # benchmark's call-edge checks pin; in exact arithmetic all three routes
    # are equal (see the verification suite).  At a float point both
    # reference routes return floats.
    f0 = _reference_values(x0)
    scales = [max(1.0, abs(f)) for f in f0]
    # each kept state extends values by its row of 2n + 1
    values = array.array("d", (*state, 0.0))
    k, state = _trajectory_kernel(n)(*state, h, steps, *f0, *scales, values.extend)
    _check_window(n, state, k * h)
    return Trajectory(n, h, values)


def flow_conjugations(x0: PhasePoint, t: float) -> tuple[SquareMatrix, SquareMatrix]:
    """The two factorization expressions a L0 a^{-1} and b L0 b^{-1} of L(t).

    exp(L0 t) = a^{-1} b with a in G_plus and b in G_minus, so exp(-L0 t) =
    b^{-1} a is the factorization K R with K = b^{-1} and R = a.  Each is one
    :func:`linalg.conjugate`, R L0 R^{-1} by transposes; the two agree up to
    roundoff and both solve the Lax equation.
    """
    if x0.mode != "float":
        raise ModeError("the factorization flow runs in float mode")
    L0 = build_lax(x0)
    K, R = factor_minus_plus(mat_exp(L0, -t))
    return conjugate(R.transpose(), L0.transpose()).transpose(), conjugate(K, L0)


def exact_flow(x0: PhasePoint, t: float) -> PhasePoint:
    """Phase point at time t through the factorization solution."""
    La, _ = flow_conjugations(x0, t)
    return parameters_from_lax(La)
