"""Splitting of gl_2n and the complementary matrix group pair.

With matrices written in n x n blocks and J the n x n reversal:

* the "plus" subalgebra consists of the upper triangular 2n x 2n
  matrices [[X, Y], [0, Z]] whose block Z has a zero diagonal;
* the "minus" subalgebra consists of [[U, 0], [V, W]] with
  W = J U J = ``U.flip()``, an index flip rather than two products.

The two patterns intersect trivially and sum to everything, so they
define linear projections pi_plus / pi_minus computed here by an explicit
entrywise rule.  The corresponding groups are

* G_plus: upper triangular with invertible X block and unit diagonal
  Z block;
* G_minus: block lower triangular with W = J U J.

A generic invertible matrix factors uniquely as X = K R with K in G_minus
and R in G_plus; ``factor_minus_plus`` builds the factors from two Gauss
decompositions and ``factor_plus_minus`` gives the opposite order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DegeneratePointError, SingularMatrixError
from .linalg import SquareMatrix

_MEMBERSHIP_KINDS = ("g_plus", "g_minus", "G_plus", "G_minus")

#: Relative tolerance for pattern tests on float matrices (exact mode
#: compares exactly).
MEMBERSHIP_RTOL = 1e-9


@dataclass(frozen=True)
class SplitPair:
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


def _close(a, b, mode, scale) -> bool:
    if mode == "exact":
        return a == b
    return abs(a - b) <= MEMBERSHIP_RTOL * max(scale, 1.0)


def membership(X: SquareMatrix, which: str) -> bool:
    """Pattern predicate for the two subalgebras and the two subgroups.

    g_plus and G_plus are the upper triangular matrices whose lower right
    block has diagonal 0 (g_plus), or diagonal 1 with no zero on the upper
    left block's diagonal (G_plus).
    Group membership requires an invertible matrix and raises
    SingularMatrixError otherwise.
    """
    if which not in _MEMBERSHIP_KINDS:
        raise ValueError(f"which must be one of {_MEMBERSHIP_KINDS}")
    n = _half(X)
    mode = X.mode
    scale = X.max_abs() if mode == "float" else 0.0
    if which in ("G_plus", "G_minus"):
        if X.det() == 0:
            raise SingularMatrixError("group membership needs a nonsingular matrix")

    def zero(v):
        return _close(v, 0, mode, scale)

    def one(v):
        return _close(v, 1, mode, scale)

    if which in ("g_plus", "G_plus"):
        if not all(zero(v) for i, row in enumerate(X.rows) for v in row[:i]):
            return False  # not upper triangular
        if which == "g_plus":
            return all(zero(X[n + i, n + i]) for i in range(n))
        return (all(not zero(X[i, i]) for i in range(n))
                and all(one(X[n + i, n + i]) for i in range(n)))

    for i in range(n):
        for j in range(n):
            if not zero(X[i, n + j]):
                return False
    expect = X.block(0, 0, n).flip()
    W = X.block(n, n, n)
    return all(_close(W[i, j], expect[i, j], mode, scale)
               for i in range(n) for j in range(n))


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


def _lower_unitupper(X: SquareMatrix) -> tuple[SquareMatrix, SquareMatrix]:
    """X = Lo @ Ru with Lo lower triangular and Ru unit upper triangular."""
    lu, uu = X.transpose().lu_unit_lower()
    return uu.transpose(), lu.transpose()


def _unitupper_lower(X: SquareMatrix) -> tuple[SquareMatrix, SquareMatrix]:
    """X = Ru @ Lo with Ru unit upper triangular and Lo lower triangular."""
    lo, up = X.flip().lu_unit_lower()
    return lo.flip(), up.flip()


def factor_minus_plus(X: SquareMatrix) -> tuple[SquareMatrix, SquareMatrix]:
    """Unique factorization X = K @ R with K in G_minus, R in G_plus.

    Steps: Gauss X = Lo * Ru with Ru unit upper (hence in G_plus); then on
    the blocks Lo = [[A, 0], [B, C]] take the Gauss decomposition
    C^{-1} J A J = R2 U2 and assemble

        K = [[A J U2^{-1} J, 0], [B J U2^{-1} J, C R2]],
        R = diag(J U2 J, R2^{-1}) @ Ru.

    Raises DegeneratePointError when either Gauss step fails.
    """
    n = _half(X)
    mode = X.mode
    Lo, Ru = _lower_unitupper(X)
    A = Lo.block(0, 0, n)
    B = Lo.block(n, 0, n)
    C = Lo.block(n, n, n)
    J = SquareMatrix.reversal(n, mode)
    try:
        Cinv = C.inverse()
    except SingularMatrixError as e:
        raise DegeneratePointError(f"singular lower-right Gauss block: {e}") from e
    # Not a conjugation: in float mode Cinv @ A.flip() would add its terms in reverse order.
    R2, U2 = _unitupper_lower(Cinv @ J @ A @ J)
    JU2invJ = U2.inverse().flip()
    Z0 = SquareMatrix.zero(n, mode)
    K = SquareMatrix.from_blocks([[A @ JU2invJ, Z0], [B @ JU2invJ, C @ R2]])
    G = SquareMatrix.from_blocks([[U2.flip(), Z0], [Z0, R2.inverse()]])
    return K, G @ Ru


def factor_plus_minus(X: SquareMatrix) -> tuple[SquareMatrix, SquareMatrix]:
    """Unique factorization X = Mp @ Kinv with Mp in G_plus, Kinv in G_minus.

    Obtained from factor_minus_plus(X^{-1}) = (K', R') as Mp = R'^{-1},
    Kinv = K'^{-1}.
    """
    Kp, Rp = factor_minus_plus(X.inverse())
    return Rp.inverse(), Kp.inverse()
