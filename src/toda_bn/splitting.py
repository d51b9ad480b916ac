"""Splitting of gl_2n and the complementary matrix group pair.

With matrices written in n x n blocks and J the n x n reversal:

* the "plus" subalgebra consists of the upper triangular 2n x 2n
  matrices [[X, Y], [0, Z]] whose block Z has a zero diagonal;
* the "minus" subalgebra consists of [[U, 0], [V, W]] with
  W = J U J = ``U.flip()``, an index flip rather than two products.

The two patterns intersect trivially and sum to everything, so they
define linear projections pi_plus / pi_minus computed here by an explicit
entrywise rule.  ``membership`` tests a pattern entry by entry with
``linalg.close``: exactly over Fraction, within MEMBERSHIP_RTOL over
float.  The corresponding groups are

* G_plus: upper triangular with invertible X block and unit diagonal
  Z block;
* G_minus: block lower triangular with W = J U J.

A generic invertible matrix factors uniquely as X = K R with K in G_minus
and R in G_plus; ``factor_minus_plus`` builds the factors from the n x n
blocks of X through its Schur complement, and ``factor_plus_minus`` gives
the opposite order.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import DegeneratePointError, SingularMatrixError
from .linalg import SquareMatrix, close, solve

_MEMBERSHIP_KINDS = ("g_plus", "g_minus", "G_plus", "G_minus")

#: Relative tolerance of ``linalg.close`` for pattern tests on float
#: matrices, against max(1, max|X|) (exact mode compares exactly).
MEMBERSHIP_RTOL = 1e-9


class SplitPair(NamedTuple):
    """The two projections of a matrix; plus + minus rebuilds the input."""

    plus: SquareMatrix
    minus: SquareMatrix


def _half(X: SquareMatrix) -> int:
    if X.dim % 2:
        raise ValueError("need even dimension 2n")
    return X.dim // 2


def project(X: SquareMatrix) -> SplitPair:
    """Split X into its plus and minus components.

    The minus part takes the whole lower-left block of X; its upper-left
    block U copies the strict lower triangle of X's upper-left block,
    while the diagonal and strict upper triangle of U are read from X's
    lower-right block D via U[k, l] = D[n-1-k, n-1-l]; the lower-right
    block of the minus part is then J U J.  This is the unique splitting
    compatible with the two membership patterns.
    """
    n = _half(X)
    mode = X.mode
    JDJ = X.block(n, n, n).flip()
    Ub = SquareMatrix([[X[k, l] if k > l else JDJ[k, l] for l in range(n)] for k in range(n)],
                      mode)
    Z0 = SquareMatrix.zero(n, mode)
    minus = SquareMatrix.from_blocks([[Ub, Z0], [X.block(n, 0, n), Ub.flip()]])
    return SplitPair(X - minus, minus)


def membership(X: SquareMatrix, which: str) -> bool:
    """Pattern predicate for the two subalgebras and the two subgroups.

    g_plus and G_plus are the upper triangular matrices whose lower right
    block has diagonal 0 (g_plus), or diagonal 1 with no zero on the upper
    left block's diagonal (G_plus).
    Group membership requires an invertible matrix and raises
    SingularMatrixError otherwise.  Entries are compared by
    ``linalg.close`` with MEMBERSHIP_RTOL and the scale max|X|.
    """
    if which not in _MEMBERSHIP_KINDS:
        raise ValueError(f"which must be one of {_MEMBERSHIP_KINDS}")
    n = _half(X)
    mode = X.mode
    scale = X.max_abs() if mode == "float" else 0.0
    if which in ("G_plus", "G_minus"):
        if X.det() == 0:
            raise SingularMatrixError("group membership needs a nonsingular matrix")

    def near(v, w=0):
        return close(v, w, mode, MEMBERSHIP_RTOL, scale)

    if which in ("g_plus", "G_plus"):
        if not all(near(v) for i, row in enumerate(X.rows) for v in row[:i]):
            return False  # not upper triangular
        if which == "g_plus":
            return all(near(X[n + i, n + i]) for i in range(n))
        return (all(not near(X[i, i]) for i in range(n))
                and all(near(X[n + i, n + i], 1) for i in range(n)))

    expect = X.block(0, 0, n).flip()  # J U J, which W must be
    return (all(near(v) for row in X.rows[:n] for v in row[n:])
            and all(near(X[n + i, n + j], expect[i, j]) for i in range(n) for j in range(n)))


def pattern_dimension(n: int, which: str) -> int:
    """Number of free entries of the subalgebra/subgroup pattern (2n^2 each)."""
    if which not in _MEMBERSHIP_KINDS:
        raise ValueError(f"which must be one of {_MEMBERSHIP_KINDS}")
    if which in ("g_plus", "G_plus"):
        upper_left = n * (n + 1) // 2
        upper_right = n * n
        lower_right = n * (n - 1) // 2
        return upper_left + upper_right + lower_right
    return 2 * n * n  # U and V blocks free, W determined


def factor_minus_plus(X: SquareMatrix) -> tuple[SquareMatrix, SquareMatrix]:
    """Unique factorization X = K @ R with K in G_minus, R in G_plus.

    Block LU (Golub & Van Loan, *Matrix Computations*, 4th ed., 3.2) on
    K = [[U, 0], [V, J U J]] and R = [[P, Y], [0, Z]]: X11 = U P,
    X21 = V P, X12 = U Y, and the Schur complement
    S = X22 - X21 W with W = X11^{-1} X12 equals J U J Z.  So
    X11^{-1} J S J = P^{-1} (J Z J) is upper times unit lower, and the
    Doolittle LU of the transpose of its flip is Z^T (J P^{-1} J)^T.  Then
    U = X11 P^{-1}, V = X21 P^{-1} and Y = P W.  W and X11^{-1} J S J are
    solves with X11, and P is a back substitution on the triangular P^{-1}.

    Raises DegeneratePointError on a singular X11 or a vanishing minor in
    that LU.  In exact mode this happens exactly when no factorization
    exists: a factorization makes X11 = U P invertible and gives that LU,
    and conversely the LU's factors build K and R as above.  In float mode
    a singular X, then a singular X11, by ``det``'s SINGULARITY_RTOL raise
    first: a float solve raises only on a zero pivot, and the float LU
    measures its pivots against X11^{-1} J S J alone, which a Schur
    complement of rounding noise would pass.
    """
    n = _half(X)
    X11, X21 = X.block(0, 0, n), X.block(n, 0, n)
    if X.mode == "float" and X.det() == 0:
        raise DegeneratePointError("singular matrix")
    try:
        if X.mode == "float" and X11.det() == 0:
            raise SingularMatrixError("a pivot below SINGULARITY_RTOL")
        W = solve(X11, X.block(0, n, n))
    except SingularMatrixError as e:
        raise DegeneratePointError(f"singular upper-left block: {e}") from e
    S = X.block(n, n, n) - X21 @ W
    lo, up = solve(X11, S.flip()).flip().transpose().lu_unit_lower()
    Pinv = up.transpose().flip()
    P = Pinv.inverse()
    Z0 = SquareMatrix.zero(n, X.mode)
    U = X11 @ Pinv
    K = SquareMatrix.from_blocks([[U, Z0], [X21 @ Pinv, U.flip()]])
    R = SquareMatrix.from_blocks([[P, P @ W], [Z0, lo.transpose()]])
    return K, R


def factor_plus_minus(X: SquareMatrix) -> tuple[SquareMatrix, SquareMatrix]:
    """Unique factorization X = Mp @ Kinv with Mp in G_plus, Kinv in G_minus.

    Obtained from factor_minus_plus(X^{-1}) = (K', R') as Mp = R'^{-1},
    Kinv = K'^{-1}.
    """
    Kp, Rp = factor_minus_plus(X.inverse())
    return Rp.inverse(), Kp.inverse()
