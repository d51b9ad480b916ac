"""Exact multivariate Laurent polynomials in z_1..z_n and Q_1..Q_n.

Exponents of the z variables range over the integers, exponents of the Q
variables over the nonnegative integers (Q only ever enters polynomially).
Coefficients are exact rationals; there is no float variant of this class,
since its whole purpose is to make identity tests exact.

A polynomial is stored as a map from exponent vectors to nonzero rational
coefficients; zero coefficients are never stored, so two polynomials are
equal iff their term maps are equal.  The printed and serialized term
order is graded lexicographic with the z block before the Q block,
highest first.

``evaluate`` sums the terms at a point in one loop, over Fractions at an
exact point and over floats at a float point, so its value is a Fraction
or a float by the point's mode alone.  Its exact callers evaluate
small polynomials (Lax entries, a gradient, interval weights); the
conserved quantities at an exact point come from ``conserved``'s chain-sum
pass, which never expands F_i into terms.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from .errors import (
    IndexMismatchError,
    UnknownVariableError,
    ZeroBaseError,
)
from .linalg import scalars_mode

ExpKey = tuple  # (z_exponents tuple[int], Q_exponents tuple[int])


def _term_sort_key(key: ExpKey):
    ez, eq = key
    return (-(sum(ez) + sum(eq)), tuple(-e for e in ez), tuple(-e for e in eq))


class LaurentPoly:
    """Immutable Laurent polynomial over Q in 2n variables."""

    __slots__ = ("n", "_terms", "_plan")

    def __init__(self, n: int, terms: Mapping[ExpKey, Fraction] | None = None):
        if n < 1:
            raise ValueError("need n >= 1")
        self.n = n
        clean: dict[ExpKey, Fraction] = {}
        for (ez, eq), c in (terms or {}).items():
            ez, eq = tuple(ez), tuple(eq)
            if len(ez) != n or len(eq) != n:
                raise IndexMismatchError("exponent vectors must have length n")
            if any(e < 0 for e in eq):
                raise ValueError("Q exponents must be nonnegative")
            c = Fraction(c)
            if c != 0:
                clean[(ez, eq)] = c
        self._terms = clean
        self._plan = None  # the _EvalPlan, made by the first evaluate call

    @classmethod
    def _trusted(cls, n: int, terms: dict) -> "LaurentPoly":
        """A polynomial that takes ``terms`` as its term map, unchecked.

        The caller guarantees what ``__init__`` would check: every key is a
        pair of length-n int tuples with nonnegative Q exponents, and every
        value is a nonzero Fraction.  The dict is kept, not copied, so its
        order is the storage order.
        """
        self = object.__new__(cls)
        self.n = n
        self._terms = terms
        self._plan = None
        return self

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "LaurentPoly":
        return cls(n)

    @classmethod
    def constant(cls, n: int, c) -> "LaurentPoly":
        return cls(n, {((0,) * n, (0,) * n): Fraction(c)})

    @classmethod
    def one(cls, n: int) -> "LaurentPoly":
        return cls.constant(n, 1)

    @classmethod
    def monomial(cls, n: int, zexp: Sequence[int], qexp: Sequence[int], c=1) -> "LaurentPoly":
        return cls(n, {(tuple(zexp), tuple(qexp)): Fraction(c)})

    @classmethod
    def z_var(cls, n: int, i: int, power: int = 1) -> "LaurentPoly":
        """z_i^power, 1-based i."""
        if not 1 <= i <= n:
            raise UnknownVariableError(f"z_{i} with n={n}")
        ez = [0] * n
        ez[i - 1] = power
        return cls.monomial(n, ez, [0] * n)

    @classmethod
    def q_var(cls, n: int, i: int, power: int = 1) -> "LaurentPoly":
        """Q_i^power, 1-based i."""
        if not 1 <= i <= n:
            raise UnknownVariableError(f"Q_{i} with n={n}")
        eq = [0] * n
        eq[i - 1] = power
        return cls.monomial(n, [0] * n, eq)

    # -- accessors ----------------------------------------------------------

    @property
    def terms(self) -> Mapping[ExpKey, Fraction]:
        return self._terms

    def is_zero(self) -> bool:
        return not self._terms

    def sorted_terms(self):
        return sorted(self._terms.items(), key=lambda kv: _term_sort_key(kv[0]))

    def __eq__(self, other):
        if isinstance(other, LaurentPoly):
            return self.n == other.n and self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self == LaurentPoly.constant(self.n, other)
        return NotImplemented

    def __hash__(self):
        return hash((self.n, frozenset(self._terms.items())))

    # -- ring operations ------------------------------------------------------

    def _coerce(self, other) -> "LaurentPoly":
        if isinstance(other, LaurentPoly):
            if other.n != self.n:
                raise IndexMismatchError(f"variable counts differ: {self.n} vs {other.n}")
            return other
        if isinstance(other, (int, Fraction)):
            return LaurentPoly.constant(self.n, other)
        raise TypeError(f"cannot combine LaurentPoly with {type(other).__name__}")

    def __add__(self, other):
        other = self._coerce(other)
        terms = dict(self._terms)
        for k, c in other._terms.items():
            s = terms.get(k, 0) + c
            if s == 0:
                terms.pop(k, None)
            else:
                terms[k] = s
        return LaurentPoly._trusted(self.n, terms)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly._trusted(self.n, {k: -c for k, c in self._terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        out: dict[ExpKey, Fraction] = {}
        for (ez1, eq1), c1 in self._terms.items():
            for (ez2, eq2), c2 in other._terms.items():
                key = (tuple(a + b for a, b in zip(ez1, ez2)),
                       tuple(a + b for a, b in zip(eq1, eq2)))
                s = out.get(key, 0) + c1 * c2
                if s == 0:
                    out.pop(key, None)
                else:
                    out[key] = s
        return LaurentPoly._trusted(self.n, out)

    __rmul__ = __mul__

    # -- calculus / evaluation ------------------------------------------------

    def evaluate(self, z: Sequence, Q: Sequence):
        """Value at z = (z_1..z_n), Q = (Q_1..Q_n).

        Each term is its coefficient times the powers z_i ** e and Q_i ** e
        in variable order, and the terms are added in storage order.  The
        point's mode is ``linalg.scalars_mode``'s: at a point of ints and
        Fractions each coordinate is passed through ``Fraction()`` and the
        value is an exact Fraction; at a point of floats, ints included,
        each coordinate is passed through ``float()``, each coefficient
        through ``_EvalPlan.float_coeffs``, and the value is a float, a
        constant or empty polynomial's included.  One loop serves both
        modes.

        Raises ZeroBaseError when some z_i vanishes, and ModeError at a
        point that mixes Fractions with floats.
        """
        if len(z) != self.n or len(Q) != self.n:
            raise IndexMismatchError("point size does not match variable count")
        if any(v == 0 for v in z):
            raise ZeroBaseError("evaluation requires all z_i != 0")
        point = (*z, *Q)
        exact = scalars_mode(point) == "exact"
        if not self._terms:
            return Fraction(0) if exact else 0.0
        plan = self._plan
        if plan is None:
            plan = self._plan = _EvalPlan(self._terms)
        to = Fraction if exact else float
        powers = [to(point[v]) ** e for v, e in plan.powers]
        acc = None
        for term, zf, qf in zip(plan.coeffs if exact else plan.float_coeffs(),
                                plan.z_factors, plan.q_factors):
            for j in zf:
                term = term * powers[j]
            for j in qf:
                term = term * powers[j]
            acc = term if acc is None else acc + term
        return acc

    def partial_derivative(self, var: str) -> "LaurentPoly":
        """Formal derivative with respect to "z<i>" or "Q<i>" (1-based)."""
        kind, idx = _parse_var(var, self.n)
        out: dict[ExpKey, Fraction] = {}
        for (ez, eq), c in self._terms.items():
            if kind == "z":
                e = ez[idx]
                if e == 0:
                    continue
                nez = list(ez)
                nez[idx] = e - 1
                key = (tuple(nez), eq)
            else:
                e = eq[idx]
                if e == 0:
                    continue
                neq = list(eq)
                neq[idx] = e - 1
                key = (ez, tuple(neq))
            s = out.get(key, 0) + c * e
            if s == 0:
                out.pop(key, None)
            else:
                out[key] = s
        return LaurentPoly._trusted(self.n, out)

    def substitute_q_zero(self) -> "LaurentPoly":
        """The specialization Q_1 = ... = Q_n = 0 (drop terms with Q factors)."""
        return LaurentPoly._trusted(
            self.n, {k: c for k, c in self._terms.items() if not any(k[1])})

    # -- presentation -----------------------------------------------------------

    def __str__(self):
        if not self._terms:
            return "0"
        parts = []
        for (ez, eq), c in self.sorted_terms():
            factors = [f"z{i + 1}^{e}" for i, e in enumerate(ez) if e]
            factors += [f"Q{i + 1}^{e}" for i, e in enumerate(eq) if e]
            parts.append(f"{c} * " + " ".join(factors) if factors else f"{c}")
        return " + ".join(parts)

    __repr__ = __str__


class _EvalPlan:
    """The terms of a polynomial as index tuples into a table of powers.

    ``powers`` lists the distinct (variable, exponent) pairs, the variable
    indexing the point (z_1..z_n, Q_1..Q_n); ``z_factors[t]`` and
    ``q_factors[t]`` index the powers of term t's z half and Q half in
    variable order, and ``coeffs[t]`` is its coefficient.  Terms share
    few exponent halves (F_0..F_12 at n = 6 have 729 distinct z-halves
    and 126 distinct Q-halves over 17 089 terms), so the index tuple of
    each half is made once per plan and every term with that half holds
    the same tuple; ``evaluate`` multiplies by the z half, then by the Q
    half, which is variable order.  At a float point ``Fraction * float``
    and ``Fraction + float`` compute ``float(c) * x`` and ``float(c) + x``,
    so the coefficients are converted once up front, as ``numerator /
    denominator``, the correctly rounded quotient that ``float(c)`` also
    returns, one float per distinct coefficient object.  Every sum keeps
    its bits; a constant term is a float too, so every float evaluate
    returns a float.

    ``conserved._f_polys`` keeps one object per distinct key, key half and
    coefficient value across F_0..F_2n; with those, F_0..F_12 at n = 6
    and their plans retain 114 B a term (1.9 MB) after one float evaluate,
    against 231 B (3.9 MB) when each term held its own key, index tuple
    and float (tracemalloc).  Cold, that first evaluate,
    plans included, takes a median 13.5 ms against 16.2 ms; a warm one of
    all 13 takes 3.6 ms against 3.0 ms, the cost of a second index loop a
    term (medians of 22 fresh processes, 2-core Xeon, Python 3.11).
    """

    __slots__ = ("powers", "z_factors", "q_factors", "coeffs", "_floats")

    def __init__(self, terms: Mapping[ExpKey, Fraction]):
        table: dict[tuple[int, int], int] = {}
        z_halves: dict[tuple, tuple] = {}
        q_halves: dict[tuple, tuple] = {}
        self.z_factors = []
        self.q_factors = []
        for ez, eq in terms:
            zf = z_halves.get(ez)
            if zf is None:
                zf = z_halves[ez] = tuple(table.setdefault((v, e), len(table))
                                          for v, e in enumerate(ez) if e)
            qf = q_halves.get(eq)
            if qf is None:
                qf = q_halves[eq] = tuple(table.setdefault((len(ez) + v, e), len(table))
                                          for v, e in enumerate(eq) if e)
            self.z_factors.append(zf)
            self.q_factors.append(qf)
        self.powers = tuple(table)
        self.coeffs = list(terms.values())
        self._floats = None

    def float_coeffs(self) -> list:
        if self._floats is None:
            floats: dict[int, float] = {}  # id of a coefficient -> its float
            self._floats = []
            for c in self.coeffs:
                f = floats.get(id(c))
                if f is None:
                    f = floats[id(c)] = c.numerator / c.denominator
                self._floats.append(f)
        return self._floats


def _parse_var(var: str, n: int) -> tuple[str, int]:
    if isinstance(var, str) and len(var) >= 2 and var[0] in ("z", "Q"):
        try:
            i = int(var[1:])
        except ValueError:
            raise UnknownVariableError(f"bad variable name {var!r}")
        if 1 <= i <= n:
            return var[0], i - 1
    raise UnknownVariableError(f"unknown variable {var!r} for n={n}")

