"""Linear algebra over R^(n+1,n).

The ambient space is R^(2n+1) with the symmetric bilinear form b(x, y) = x^T J y,
where J carries identity blocks in the anti-diagonal corners and a single 1 in
the middle.  Signature is (n+1, n): n+1 positive directions, n negative ones.
Maximal isotropic subspaces have dimension n.

This module provides the form, signatures of subspaces, b-orthogonal
complements, and a consistent orientation for maximal isotropic subspaces.
Orientations are computed by projecting an isotropic frame onto the
negative-definite complement of a positive-definite reference subspace; the
resulting sign does not depend on the reference, only on the frame.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg

DEFAULT_TOL = 1e-9


class GeometryError(Exception):
    """Base class for all numerical-geometry failures in this package."""


class FrameError(GeometryError):
    """A frame is rank deficient, has wrong shape, or wrong signature."""


class OrientationError(GeometryError):
    """An orientation sign is numerically indeterminate."""


def _readonly(a):
    a = np.asarray(a, dtype=float)
    a.setflags(write=False)
    return a


def as_columns(obj):
    """Return the underlying (dim, k) column matrix of a frame-like object."""
    if isinstance(obj, IsotropicFrame):
        return obj.frame.columns
    if isinstance(obj, SubspaceFrame):
        return obj.columns
    a = np.asarray(obj, dtype=float)
    if a.ndim == 1:
        a = a[:, None]
    return a


@dataclass(frozen=True)
class QuadraticSpace:
    """Dimension parameter n and the fixed form matrix of signature (n+1, n)."""

    n: int
    form: np.ndarray

    @property
    def dim(self):
        return 2 * self.n + 1

    def bilinear(self, x, y):
        """b(x, y) = x^T J y."""
        return float(np.asarray(x) @ self.form @ np.asarray(y))

    def gram(self, columns):
        """Gram matrix B^T J B of a column frame."""
        b = as_columns(columns)
        return b.T @ self.form @ b


def standard_form(n):
    """Quadratic space of signature (n+1, n) with the anti-block form matrix.

    J has I_n in the upper-right and lower-left corners and a single 1 at the
    middle diagonal position; J is symmetric and an involution.
    """
    if n < 1:
        raise ValueError("n must be a positive integer (got %r)" % (n,))
    d = 2 * n + 1
    j = np.zeros((d, d))
    for i in range(n):
        j[i, n + 1 + i] = 1.0
        j[n + 1 + i, i] = 1.0
    j[n, n] = 1.0
    return QuadraticSpace(n=int(n), form=_readonly(j))


@dataclass(frozen=True)
class SubspaceFrame:
    """Ordered basis (column list) of a subspace, with a rank tolerance."""

    columns: np.ndarray
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        cols = np.asarray(self.columns, dtype=float)
        if cols.ndim == 1:
            cols = cols[:, None]
        if cols.ndim != 2 or cols.shape[1] == 0 or cols.shape[1] > cols.shape[0]:
            raise FrameError("frame must be (dim, k) with 1 <= k <= dim, got shape %r"
                             % (cols.shape,))
        sv = np.linalg.svd(cols, compute_uv=False)
        if sv[-1] <= self.tol * sv[0]:
            raise FrameError("rank-deficient frame: smallest singular value %.3e "
                             "<= tol * largest %.3e" % (sv[-1], self.tol * sv[0]))
        object.__setattr__(self, "columns", _readonly(cols))

    @property
    def k(self):
        return self.columns.shape[1]


@dataclass(frozen=True)
class IsotropicFrame:
    """Frame of a maximal isotropic subspace together with its orientation sign."""

    frame: SubspaceFrame
    orientation: int

    @property
    def columns(self):
        return self.frame.columns


def orthonormalize_oriented(columns):
    """Euclidean-orthonormalize columns without flipping orientation.

    QR with the sign of the R diagonal fixed to be positive, so the transition
    matrix from the input to the output has positive determinant.  A
    (..., dim, k) stack is orthonormalized matrix by matrix.
    """
    b = as_columns(columns)
    q, r = np.linalg.qr(b)
    s = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    s[s == 0] = 1.0
    return q * s[..., None, :]


def _principal_angles(qa, qb):
    """Unsorted principal angles of orthonormal qa against qb, over a stack.

    Hybrid cosine/sine formulation: arccos of the singular values of Qa^T Qb
    loses all accuracy below ~1e-8, so small angles are recovered from the
    singular values of (I - Qa Qa^T) Qb instead.
    """
    c = np.swapaxes(qa, -1, -2) @ qb
    cosv = np.clip(np.linalg.svd(c, compute_uv=False), 0.0, 1.0)
    sinv = np.linalg.svd(qb - qa @ c, compute_uv=False)
    sinv = np.clip(np.sort(sinv, axis=-1), 0.0, 1.0)  # ascending, like the angles
    return np.where(cosv ** 2 >= 0.5, np.arcsin(sinv), np.arccos(cosv))


def principal_angles(a, b):
    """Principal angles between the spans of two column frames, ascending."""
    qa = orthonormalize_oriented(a)
    qb = orthonormalize_oriented(b)
    if qa.shape[1] != qb.shape[1]:
        raise FrameError("frames of unequal dimension have no principal-angle distance")
    return np.sort(_principal_angles(qa, qb))


def largest_principal_angle(a, b):
    return float(principal_angles(a, b)[-1])


def spans_equal(a, b, tol=1e-8):
    """Span equality via the largest principal angle (frames are non-unique)."""
    a = as_columns(a)
    b = as_columns(b)
    if a.shape != b.shape:
        return False
    return largest_principal_angle(a, b) < tol


def signature(space, frame, tol=None):
    """Counts (degenerate, positive, negative) of the restricted form.

    Eigenvalues of the Gram matrix B^T J B, classified against
    tol * sigma_max(B)^2 so the test is invariant under rescaling the frame.
    """
    frame = frame if isinstance(frame, SubspaceFrame) else SubspaceFrame(as_columns(frame))
    tol = frame.tol if tol is None else tol
    b = frame.columns
    smax = np.linalg.svd(b, compute_uv=False)[0]
    thresh = tol * smax * smax
    ev = np.linalg.eigvalsh(space.gram(b))
    deg = int(np.sum(np.abs(ev) <= thresh))
    pos = int(np.sum(ev > thresh))
    neg = int(np.sum(ev < -thresh))
    return deg, pos, neg


def is_isotropic(space, columns, tol=DEFAULT_TOL):
    b = as_columns(columns)
    smax = np.linalg.svd(b, compute_uv=False)[0]
    return float(np.abs(space.gram(b)).max()) <= tol * smax * smax


def b_orthogonal_complement(space, frame, tol=None):
    """Frame for {w : b(v, w) = 0 for all v in span(frame)}.

    The form is nondegenerate, so the complement has dimension dim - k and
    taking it twice reproduces the original span.
    """
    frame = frame if isinstance(frame, SubspaceFrame) else SubspaceFrame(as_columns(frame))
    b = frame.columns
    null = scipy.linalg.null_space(b.T @ space.form)
    if null.shape[1] != space.dim - frame.k:
        raise FrameError("b-orthogonal complement has unexpected dimension %d"
                         % null.shape[1])
    return SubspaceFrame(null, tol=frame.tol if tol is None else tol)


@lru_cache(maxsize=None)
def _default_frames(n):
    d = 2 * n + 1
    pos = np.zeros((d, n + 1))
    neg = np.zeros((d, n))
    for i in range(n):
        pos[i, i] = pos[n + 1 + i, i] = 1.0 / np.sqrt(2.0)
        neg[i, i] = 1.0 / np.sqrt(2.0)
        neg[n + 1 + i, i] = -1.0 / np.sqrt(2.0)
    pos[n, n] = 1.0
    return SubspaceFrame(pos), SubspaceFrame(neg)


def default_positive_frame(space):
    """Reference positive-definite (n+1)-frame: (e_i+e_{n+1+i})/sqrt2, then e_{n+1}.

    b-orthonormal by construction; its ordered basis carries the reference
    orientation used throughout.
    """
    return _default_frames(space.n)[0]


def default_negative_frame(space):
    """Reference negative-definite n-frame: (e_i - e_{n+1+i})/sqrt2, in order."""
    return _default_frames(space.n)[1]


def canonical_orientation(space, isotropic, positive=None, tol=DEFAULT_TOL):
    """Consistent orientation sign of a maximal isotropic frame.

    The frame q is projected onto the negative-definite complement of
    `positive` = P along P, as q - P (P^T J P)^-1 P^T J q (both projections
    are isomorphisms on isotropic subspaces), and that image is expressed in
    the reference negative frame by projecting along the reference positive
    frame.  The sign of the resulting n x n determinant is the orientation.
    It does not depend on the choice of `positive`, and the standard frame
    (e_1, ..., e_n) gets +1.
    """
    b = as_columns(isotropic)
    if b.shape != (space.dim, space.n):
        raise FrameError("isotropic frame must be (%d, %d), got %r"
                         % (space.dim, space.n, b.shape))
    if not is_isotropic(space, b, tol=max(tol, 1e-7)):
        raise FrameError("frame is not isotropic within tolerance")
    q = orthonormalize_oriented(b)

    if positive is not None:
        pos = SubspaceFrame(as_columns(positive))
        if signature(space, pos) != (0, space.n + 1, 0):
            raise FrameError("reference subspace must be positive definite of "
                             "dimension n+1")
        p = pos.columns
        pj = p.T @ space.form
        q = q - p @ np.linalg.solve(pj @ p, pj @ q)
    return int(_orientation(space, q))


def _orientation(space, q):
    """Orientation signs of a (..., dim, n) stack of frames, as an int array.

    The coordinates of q in the reference negative frame, along the reference
    positive one, are (q_top - q_bot) / sqrt 2, with q_top the first n rows
    and q_bot the last n; so the sign is that of det(q_top - q_bot).
    """
    n = space.n
    det = np.linalg.det(q[..., :n, :] - q[..., n + 1:, :]) * 2.0 ** (-n / 2.0)
    small = np.abs(det) < 1e-12
    if np.any(small):
        raise OrientationError("orientation determinant %.3e is numerically "
                               "indeterminate" % det[small].flat[0])
    return np.where(det > 0, 1, -1)


def _checked_isotropic(space, columns, tol):
    """SubspaceFrame of a maximal isotropic subspace, rank and isotropy checked."""
    frame = SubspaceFrame(as_columns(columns))
    if frame.k != space.n:
        raise FrameError("maximal isotropic frames have %d columns, got %d"
                         % (space.n, frame.k))
    if not is_isotropic(space, frame.columns, tol=tol):
        defect = float(np.abs(space.gram(frame.columns)).max())
        raise FrameError("frame is not isotropic: max |B^T J B| = %.3e" % defect)
    return frame


def _checked_orthonormal_isotropic(space, columns, tol):
    """The verdict of _checked_isotropic on a nearly orthonormal Z, mostly without SVDs.

    delta = k max|Z^T Z - I| + 1e-12 (a rounding allowance) bounds every
    |sigma(Z)^2 - 1|: delta < 0.5 passes the rank test, and a defect outside
    tol * (1 +- delta) decides max|Z^T J Z| <= tol * sigma_max^2.  Otherwise
    _checked_isotropic runs.
    """
    z = as_columns(columns)
    k = z.shape[1]
    delta = k * float(np.abs(z.T @ z - np.eye(k)).max()) + 1e-12
    if delta < 0.5 and k == space.n:
        defect = float(np.abs(space.gram(z)).max())
        if defect <= tol * (1.0 - delta):
            frame = object.__new__(SubspaceFrame)
            object.__setattr__(frame, "columns", _readonly(z))
            object.__setattr__(frame, "tol", DEFAULT_TOL)
            return frame
        if defect > tol * (1.0 + delta):
            raise FrameError("frame is not isotropic: max |B^T J B| = %.3e" % defect)
    return _checked_isotropic(space, z, tol)


def isotropic_frame(space, columns, tol=DEFAULT_TOL):
    """Validated maximal isotropic frame with its canonical orientation.

    tol bounds the isotropy defect only; the frame keeps the default rank
    tolerance, so a caller that scales tol with a large norm does not make a
    well-conditioned frame look rank deficient.
    """
    frame = _checked_isotropic(space, columns, tol)
    # that check implies canonical_orientation's looser isotropy test
    orientation = int(_orientation(space, orthonormalize_oriented(frame.columns)))
    return IsotropicFrame(frame=frame, orientation=orientation)


def _random_lie_element(space, rng, scale=0.5):
    """X = M - J M^T J for a normal M; X solves X^T J + J X = 0 for any M."""
    rng = np.random.default_rng(rng)
    m = rng.normal(0.0, scale, size=(space.dim, space.dim))
    return m - space.form @ m.T @ space.form


def random_so_element(space, rng, scale=0.5):
    """Element of the identity component, exp of a random Lie-algebra element."""
    return scipy.linalg.expm(_random_lie_element(space, rng, scale))


def random_positive_definite_subspace(space, seed):
    """Deterministic-in-seed frame of signature (0, n+1, 0)."""
    g = random_so_element(space, seed)
    return SubspaceFrame(g @ default_positive_frame(space).columns)


def random_isotropic_frame(space, seed):
    """Deterministic-in-seed maximal isotropic frame.

    A random identity-component element applied to the standard isotropic
    span(e_1, ..., e_n); the group acts transitively on maximal isotropics.
    """
    g = random_so_element(space, seed)
    return isotropic_frame(space, g[:, : space.n])
