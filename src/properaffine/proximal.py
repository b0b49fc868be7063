"""Spectral splittings, neutral vectors, and proximality certificates.

A proximal element splits R^(2n+1) into an attracting maximal isotropic V+
(eigenvalue moduli > 1), a repelling one V- (moduli < 1) and a b-positive
neutral line fixed by the element.  The neutral vector on that line is
b-normalized and signed by an orientation convention: positively oriented
bases of V+ and V-, with the neutral vector in between, must form a positive
basis of the ambient space.

Quantitative proximality follows the (r, eps) scheme: the attracting point
must sit at distance >= r from the non-transversality locus of the repelling
point, and the element must push everything outside an eps-neighborhood of
that locus into an eps-ball around the attracting point.  Containment is
certified by seeded Monte Carlo sampling; certificates record sample count,
seed and worst margin, and are evidence, not proof.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .core import (
    DEFAULT_TOL,
    FrameError,
    GeometryError,
    IsotropicFrame,
    SubspaceFrame,
    as_columns,
    b_orthogonal_complement,
    isotropic_frame,
    largest_principal_angle,
    orthonormalize_oriented,
    signature,
    _checked_orthonormal_isotropic,
    _orientation,
    _principal_angles,
    _random_lie_element,
    _readonly,
)
from .group import EMPTY_WORD, ball_elements, identity_isometry


class NotProximalError(GeometryError):
    """The element has no spectral gap across the unit circle."""


class TransversalityError(GeometryError):
    """Two isotropic subspaces are not transverse within tolerance."""


class InsufficientSamplesError(GeometryError):
    """The sampler produced no admissible points for a containment check."""


class ParameterError(ValueError):
    """Invalid parameter combination (eps >= r/2, nonpositive counts, ...)."""


def _checked_moduli(space, a, tol):
    """(moduli, thresh) of proximal_moduli, with thresh = tol * (1 + ||A||_2)."""
    n = space.n
    moduli = np.sort(np.abs(np.linalg.eigvals(a)))[::-1]
    # eigenvalues of large-norm words carry O(eps * ||A||) error, so the
    # unit-circle classification must scale with the norm
    thresh = tol * (1.0 + float(np.linalg.norm(a, 2)))
    n_exp = int(np.sum(moduli > 1.0 + thresh))
    n_con = int(np.sum(moduli < 1.0 / (1.0 + thresh)))
    if n_exp != n or n_con != n:
        raise NotProximalError(
            "need exactly %d moduli above and below 1, found %d above / %d below "
            "(moduli %s)" % (n, n_exp, n_con, np.array2string(moduli, precision=6)))
    return moduli, thresh


def proximal_moduli(space, a, tol=DEFAULT_TOL):
    """Eigenvalue moduli sorted descending, after checking proximality.

    Proximal means exactly n moduli above 1 + thresh and n below
    1 / (1 + thresh), with thresh = tol * (1 + ||A||_2); ties trigger
    NotProximalError rather than an arbitrary grouping.  The gap
    log |lambda_n| therefore exceeds log1p(thresh).
    """
    return _checked_moduli(space, np.asarray(a, dtype=float), tol)[0]


def _invariant_frame(a, select, n):
    """Orthonormal basis of the invariant subspace for selected eigenvalues."""
    def sort(re, im):
        return select(np.hypot(re, im))

    _, z, sdim = scipy.linalg.schur(np.asarray(a, dtype=float), output="real",
                                    sort=sort)
    if sdim != n:
        raise NotProximalError("ordered Schur selected %d eigenvalues, expected %d"
                               % (sdim, n))
    return z[:, :n]


@dataclass(frozen=True)
class SpectralSplit:
    """Attracting/repelling isotropic frames, neutral vector and gap margin."""

    attracting: IsotropicFrame
    repelling: IsotropicFrame
    neutral: np.ndarray
    gap: float
    eigenvalue_moduli: np.ndarray


def _split_frames(space, a, tol):
    """Proximality tests and the checked frames of V+ and V-, without orientation.

    Returns (moduli, V+, V-, separation): the moduli of proximal_moduli,
    SubspaceFrames of the ordered Schur columns, and the smallest singular
    value of their J-pairing, which the transversality test compares with
    tol.  The Schur columns are orthonormal and kept as they are; their rank
    and isotropy (within tol * (1 + ||A||_2)) are decided from Z^T Z without
    an SVD, with the verdicts of _checked_isotropic.
    """
    a = np.asarray(a, dtype=float)
    n = space.n
    moduli, thresh = _checked_moduli(space, a, tol)
    hi = float(np.sqrt(moduli[n - 1] * moduli[n]))
    lo = float(np.sqrt(moduli[n] * moduli[n + 1]))
    zp = _invariant_frame(a, lambda m: m >= hi, n)
    zm = _invariant_frame(a, lambda m: m <= lo, n)
    # isotropy is exact in theory; the numerical defect scales with the
    # conditioning of the eigenproblem, like the eigenvalues' error
    vplus = _checked_orthonormal_isotropic(space, zp, thresh)
    vminus = _checked_orthonormal_isotropic(space, zm, thresh)
    separation = float(np.linalg.svd(zp.T @ space.form @ zm, compute_uv=False)[-1])
    if separation <= tol:
        raise TransversalityError("attracting/repelling pairing singular value "
                                  "%.3e below tolerance" % separation)
    return moduli, vplus, vminus, separation


def spectral_split(space, a, tol=DEFAULT_TOL):
    """Eigen-split a proximal element into V+ (dilated), V- (contracted), neutral.

    V+ spans the generalized eigenvectors with |lambda| > 1 (dimension n), V-
    those with |lambda| < 1; both are maximal isotropic and transverse.  The
    neutral vector is the b-unit vector on the remaining fixed line, signed by
    the orientation convention; gap = min log |lambda| over V+.  The two
    Schur frames are orthonormalized once, in one stacked QR, for both
    orientations and the neutral vector.
    """
    moduli, fp, fm, _ = _split_frames(space, a, tol)
    n = space.n
    q = orthonormalize_oriented(np.stack([fp.columns, fm.columns]))
    op, om = _orientation(space, q).tolist()
    neutral = _neutral(space, q[0], q[1], op * om)
    return SpectralSplit(attracting=IsotropicFrame(frame=fp, orientation=op),
                         repelling=IsotropicFrame(frame=fm, orientation=om),
                         neutral=_readonly(neutral),
                         gap=float(np.log(moduli[n - 1])),
                         eigenvalue_moduli=_readonly(moduli))


def neutral_vector(space, vplus, vminus, tol=DEFAULT_TOL):
    """b-unit vector spanning V+^perp intersect V-^perp, orientation-signed.

    The sign makes (v_1^+, ..., v_n^+, v, v_1^-, ..., v_n^-) a positive basis
    of R^(2n+1) after both frames are adjusted to carry canonical
    orientation +1.
    """
    fp = vplus if isinstance(vplus, IsotropicFrame) else isotropic_frame(space, as_columns(vplus), tol=max(tol, 1e-7))
    fm = vminus if isinstance(vminus, IsotropicFrame) else isotropic_frame(space, as_columns(vminus), tol=max(tol, 1e-7))
    q = orthonormalize_oriented(np.stack([fp.columns, fm.columns]))
    return _neutral(space, q[0], q[1], fp.orientation * fm.orientation, tol)


def _neutral(space, qp, qm, sign, tol=DEFAULT_TOL):
    """neutral_vector of orthonormal qp, qm; sign is their orientations' product.

    Negating the first column of a frame with orientation -1 negates the
    determinant of [qp | v | qm] exactly, so the orientations enter as sign.
    """
    stacked = np.vstack([qp.T @ space.form, qm.T @ space.form])
    kernel = scipy.linalg.null_space(stacked)
    if kernel.shape[1] != 1:
        raise TransversalityError("common b-orthogonal line has dimension %d; "
                                  "frames are not transverse" % kernel.shape[1])
    v = kernel[:, 0]
    norm2 = float(v @ space.form @ v)
    if norm2 <= tol:
        raise TransversalityError("neutral line is not spacelike (b(v,v) = %.3e)"
                                  % norm2)
    v = v / np.sqrt(norm2)
    det = sign * np.linalg.det(np.hstack([qp, v[:, None], qm]))
    if abs(det) < 1e-12:
        raise TransversalityError("orientation determinant %.3e indeterminate" % det)
    return v if det > 0 else -v


@dataclass(frozen=True)
class TransversalityCheck:
    transverse: bool
    margin: float
    degenerate_1: np.ndarray
    degenerate_2: np.ndarray


def degenerate_part(space, frame, tol=DEFAULT_TOL):
    """Radical of the restricted form: kernel of the Gram matrix, as columns."""
    b = as_columns(frame)
    smax = np.linalg.svd(b, compute_uv=False)[0]
    ev, vec = np.linalg.eigh(space.gram(b))
    keep = np.abs(ev) <= max(tol, 1e-10) * smax * smax
    return orthonormalize_oriented(b @ vec[:, keep])


def transverse(space, frame1, frame2, tol=DEFAULT_TOL):
    """Transversality of two type-(n,1,0) subspaces, with a margin.

    Extracts the degenerate parts W1, W2, and tests R^(2n+1) = W1 + W2^perp
    via the smallest singular value of the assembled basis.
    """
    for i, f in enumerate((frame1, frame2)):
        sig = signature(space, as_columns(f))
        if sig != (space.n, 1, 0):
            raise FrameError("frame %d has signature %r, expected (n, 1, 0)"
                             % (i + 1, sig))
    w1 = degenerate_part(space, frame1, tol=tol)
    w2 = degenerate_part(space, frame2, tol=tol)
    w2_perp = orthonormalize_oriented(
        b_orthogonal_complement(space, w2).columns)
    assembled = np.hstack([w1, w2_perp])
    margin = float(np.linalg.svd(assembled, compute_uv=False)[-1])
    return TransversalityCheck(transverse=margin > tol, margin=margin,
                               degenerate_1=_readonly(w1), degenerate_2=_readonly(w2))


@dataclass(frozen=True)
class AffineFlagPair:
    """Transverse pair of affine subspaces of type (n,1,0): base points + frames."""

    space: object
    base1: np.ndarray
    base2: np.ndarray
    lin1: np.ndarray
    lin2: np.ndarray

    def __post_init__(self):
        check = transverse(self.space, self.lin1, self.lin2)
        if not check.transverse:
            raise TransversalityError("underlying subspaces are not transverse "
                                      "(margin %.3e)" % check.margin)
        for name in ("base1", "base2", "lin1", "lin2"):
            object.__setattr__(self, name, _readonly(getattr(self, name)))


def grassmann_distance(l1, l2):
    """Largest principal angle between two maximal isotropics; a metric."""
    return largest_principal_angle(as_columns(l1), as_columns(l2))


def nontransverse_distance(space, x, x_minus):
    """Distance proxy to the non-transversality locus of x_minus.

    Smallest singular value of the J-pairing of the Euclidean-orthonormalized
    frames; vanishes exactly when the pair fails to be transverse.
    """
    qx = orthonormalize_oriented(as_columns(x))
    qm = orthonormalize_oriented(as_columns(x_minus))
    return float(np.linalg.svd(qx.T @ space.form @ qm, compute_uv=False)[-1])


def sample_isotropic_bank(space, seed, samples):
    """Deterministic bank of orthonormal isotropic frames, a (samples, dim, n) array.

    Sample i is orthonormalize_oriented of the first n columns of
    random_so_element(space, default_rng((seed, i))), from one stacked expm,
    so it depends on (seed, i) only and a smaller bank is a prefix of a
    larger one.  Certificates use the frames as they are.
    """
    x = np.empty((int(samples), space.dim, space.dim))
    for i in range(int(samples)):
        x[i] = _random_lie_element(space, (int(seed), i))
    return orthonormalize_oriented(scipy.linalg.expm(x)[:, :, : space.n])


@dataclass(frozen=True)
class ProximalityCertificate:
    """Monte-Carlo (r, eps)-proximality evidence for one element.

    attracting and repelling are the checked frames of V+ and V-, without
    orientation: (r, eps)-proximality involves only the two points.
    """

    r: float
    eps: float
    attracting: SubspaceFrame
    repelling: SubspaceFrame
    separation: float
    margin_attract: float
    samples: int
    admissible: int
    seed: int
    passed: bool


def is_r_eps_proximal(space, g, r, eps, samples, seed, tol=DEFAULT_TOL,
                      _bank=None):
    """Certify that g is (r, eps)-proximal by seeded sampling.

    Checks separation(x+, nt(x-)) >= r, then verifies that every sampled
    isotropic frame outside the eps-neighborhood of nt(x-) is mapped into the
    eps-ball around x+ (largest principal angle).  margin_attract is the worst
    value of eps - d(g x, x+) over admissible samples.  Only V+ and V- are
    computed, with the checks of spectral_split; no orientation and no
    neutral vector.  x+ and x- are the split's orthonormal Schur frames, used
    as they are, and the separation is the split's transversality value, the
    smallest singular value of their J-pairing.  _bank, if given, must be
    sample_isotropic_bank(space, seed, samples).
    """
    if r <= 0 or eps <= 0 or eps >= r / 2.0:
        raise ParameterError("need 0 < eps < r/2 (got r=%g, eps=%g)" % (r, eps))
    if samples < 1:
        raise ParameterError("samples must be >= 1")
    _, vplus, vminus, separation = _split_frames(space, g, tol)
    xp, xm = vplus.columns, vminus.columns
    bank = sample_isotropic_bank(space, seed, samples) if _bank is None else _bank
    g = np.asarray(g, dtype=float)

    if space.n == 1:
        vecs = bank[:, :, 0].T                               # (dim, samples)
        pair = np.abs((space.form @ xm[:, 0]) @ vecs)        # distance to nt(x-)
        keep = pair >= eps
        admissible = int(np.count_nonzero(keep))
        if admissible == 0:
            raise InsufficientSamplesError("no samples outside the eps-neighborhood "
                                           "of nt(x-)")
        img = g @ vecs[:, keep]
        img = img / np.linalg.norm(img, axis=0)
        cosines = np.clip(np.abs(xp[:, 0] @ img), 0.0, 1.0)
        dists = np.arccos(cosines)
        margin = float(np.min(eps - dists))
    else:
        pairing = np.linalg.svd(np.swapaxes(bank, -1, -2) @ space.form @ xm,
                                compute_uv=False)
        keep = pairing[:, -1] >= eps
        admissible = int(np.count_nonzero(keep))
        if admissible == 0:
            raise InsufficientSamplesError("no samples outside the eps-neighborhood "
                                           "of nt(x-)")
        images = orthonormalize_oriented(g @ bank[keep])
        dists = _principal_angles(images, xp).max(axis=-1)
        margin = float(np.min(eps - dists))

    passed = separation >= r and margin > 0.0
    return ProximalityCertificate(r=float(r), eps=float(eps),
                                  attracting=vplus, repelling=vminus,
                                  separation=separation,
                                  margin_attract=margin,
                                  samples=int(samples), admissible=admissible,
                                  seed=int(seed), passed=passed)


@dataclass(frozen=True)
class AmsCover:
    """Finite correcting set and per-word assignment from the cover search."""

    r: float
    eps: float
    ball_length: int
    search_length: int
    assignment: dict
    correcting_set: tuple
    failures: tuple


def ams_cover(rep, r, eps, ball_length, search_length, samples=2000, seed=0,
              tol=DEFAULT_TOL, _bank=None):
    """Search a finite set S with s*g (r, eps)-proximal for every ball word.

    For every word g in the ball, candidate correctors are tried in
    deterministic order (empty word first, then the search ball); the first s
    whose product passes the certificate wins.  Words with no corrector are
    reported as failures, not errors.  _bank, if given, must be
    sample_isotropic_bank(rep.space, seed, samples).
    """
    if ball_length < 1 or search_length < 1:
        raise ParameterError("ball and search lengths must be >= 1")
    space = rep.space
    candidates = [(EMPTY_WORD, identity_isometry(space))]
    candidates += ball_elements(rep, search_length)
    if _bank is None:
        _bank = sample_isotropic_bank(space, seed, samples)
    assignment = {}
    failures = []
    used = []
    for w, gw in ball_elements(rep, ball_length):
        hit = None
        for s, gs in candidates:
            try:
                cert = is_r_eps_proximal(space, gs.linear @ gw.linear, r, eps,
                                         samples, seed, tol=tol, _bank=_bank)
            except (NotProximalError, TransversalityError,
                    InsufficientSamplesError):
                continue
            if cert.passed:
                hit = s
                break
        if hit is None:
            failures.append(w)
        else:
            assignment[w] = hit
            if hit not in used:
                used.append(hit)
    return AmsCover(r=float(r), eps=float(eps), ball_length=int(ball_length),
                    search_length=int(search_length), assignment=assignment,
                    correcting_set=tuple(used), failures=tuple(failures))
