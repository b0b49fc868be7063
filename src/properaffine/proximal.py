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
    orthonormalize_oriented,
    signature,
    _check_orthonormal_isotropic,
    _checked_frame,
    _orientation,
    _principal_angles,
    _random_lie_element,
    _readonly,
)
from .group import (
    EMPTY_WORD,
    ball_elements,
    identity_isometry,
    reduce_letters,
    _conjugator,
)


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
    _check_orthonormal_isotropic(space, np.stack([zp, zm]), thresh)
    separation = float(np.linalg.svd(zp.T @ space.form @ zm, compute_uv=False)[-1])
    if separation <= tol:
        raise TransversalityError("attracting/repelling pairing singular value "
                                  "%.3e below tolerance" % separation)
    return moduli, _checked_frame(zp), _checked_frame(zm), separation


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


def sample_isotropic_bank(space, seed, samples):
    """Deterministic bank of orthonormal isotropic frames, a (samples, dim, n) array.

    Sample i is orthonormalize_oriented of the first n columns of
    random_so_element(space, default_rng((seed, i))), from one stacked expm,
    so it depends on (seed, i) only and a smaller bank is a prefix of a
    larger one.  Certificates use the frames as they are.
    """
    x = _random_lie_element(space, [(int(seed), i) for i in range(int(samples))])
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


# elements x samples x dim^2 per chunk of a stacked certificate: at n = 2 and
# 2000 samples one element, so a round's peak memory is one certificate's
_CHUNK_FLOATS = 2 ** 16


def _check_parameters(r, eps, samples):
    if r <= 0 or eps <= 0 or eps >= r / 2.0:
        raise ParameterError("need 0 < eps < r/2 (got r=%g, eps=%g)" % (r, eps))
    if samples < 1:
        raise ParameterError("samples must be >= 1")


def _certify(space, g, xp, xm, bank, eps):
    """(admissible, margin_attract) of the certificates of a stack of elements.

    g is (m, dim, dim), xp and xm (m, dim, n) orthonormal frames of V+ and
    V-.  At n = 1 every bank frame is mapped, and the least admissible |cos|
    gives the largest angle, as arccos decreases; at n >= 2 only admissible
    pairs are mapped.  margin is nan where no frame is admissible.
    """
    admissible = np.zeros(len(g), dtype=int)
    margin = np.full(len(g), np.nan)
    vecs = bank[:, :, 0].T
    bank_j = np.swapaxes(bank, -1, -2) @ space.form
    step = max(1, _CHUNK_FLOATS // (len(bank) * space.dim ** 2))
    for part in (slice(lo, lo + step) for lo in range(0, len(g), step)):
        if space.n == 1:
            keep = np.abs((xm[part, :, 0] @ space.form) @ vecs) >= eps
            img = g[part] @ vecs
            img = img / np.linalg.norm(img, axis=1)[:, None]
            cosines = np.where(keep, np.abs(xp[part, None, :, 0] @ img)[:, 0], np.inf)
            worst = np.arccos(np.clip(cosines.min(axis=1), 0.0, 1.0))
        else:
            keep = np.linalg.svd(bank_j @ xm[part, None], compute_uv=False)[..., -1] >= eps
            wi, si = np.nonzero(keep)
            images = orthonormalize_oriented(g[part][wi] @ bank[si])
            dists = np.full(keep.shape, -np.inf)
            dists[wi, si] = _principal_angles(images, xp[part][wi]).max(axis=-1)
            worst = dists.max(axis=1)
        admissible[part] = np.count_nonzero(keep, axis=1)
        margin[part] = np.where(admissible[part] > 0, eps - worst, np.nan)
    return admissible, margin


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
    smallest singular value of their J-pairing.  The sampling is the cover's
    stacked kernel on a stack of one.  _bank, if given, must be
    sample_isotropic_bank(space, seed, samples).
    """
    _check_parameters(r, eps, samples)
    _, vplus, vminus, separation = _split_frames(space, g, tol)
    bank = sample_isotropic_bank(space, seed, samples) if _bank is None else _bank
    admissible, margin = _certify(space, np.asarray(g, dtype=float)[None],
                                  vplus.columns[None], vminus.columns[None],
                                  bank, eps)
    if admissible[0] == 0:
        raise InsufficientSamplesError("no samples outside the eps-neighborhood "
                                       "of nt(x-)")
    return ProximalityCertificate(r=float(r), eps=float(eps),
                                  attracting=vplus, repelling=vminus,
                                  separation=separation,
                                  margin_attract=float(margin[0]),
                                  samples=int(samples), admissible=int(admissible[0]),
                                  seed=int(seed),
                                  passed=bool(separation >= r and margin[0] > 0.0))


class _ClassFrames:
    """V+ and V- of words, transported from one split per conjugacy class.

    frames maps each split member's letters (group._conjugator) to its Schur
    frames (V+, V-), stacked, or to None when it is not proximal or not
    transverse; margulis.spectrum can fill it.  A missing class is split on
    first use, from prefix elements cached bitwise equal to evaluate_word.
    """

    def __init__(self, rep, tol, frames=None):
        self.rep, self.tol = rep, tol
        self.frames = {} if frames is None else frames
        self.prefixes = {(): np.eye(rep.space.dim)}

    def element(self, letters):
        if letters not in self.prefixes:
            self.prefixes[letters] = (self.element(letters[:-1])
                                      @ self.rep.letter_image(letters[-1]).linear)
        return self.prefixes[letters]

    def split(self, c):
        if c not in self.frames:
            try:
                _, vp, vm, _ = _split_frames(self.rep.space, self.element(c), self.tol)
                self.frames[c] = np.stack([vp.columns, vm.columns])
            except (NotProximalError, TransversalityError):
                self.frames[c] = None
        return self.frames[c]

    def transported(self, words, g):
        """(live, q, separation) of products with reduced letters words and matrices g.

        live indexes the products of proximal classes; q holds their
        A_y (V+(c), V-(c)), swapped for c^-1, orthonormalized in one QR and
        checked for rank and isotropy against tol * (1 + ||g||_2); separation
        is the smallest singular value of each J-pairing.
        """
        space = self.rep.space
        live, ay, v = [], [], []
        for i, w in enumerate(words):
            found = _conjugator(w)
            frames = None if found is None else self.split(found[1])
            if frames is not None:
                live.append(i)
                ay.append(self.element(found[0]))
                v.append(frames[::-1] if found[2] else frames)
        live = np.array(live, dtype=int)
        q = orthonormalize_oriented(np.reshape(ay, (-1, 1, space.dim, space.dim))
                                    @ np.reshape(v, (-1, 2, space.dim, space.n)))
        norms = np.linalg.svd(g[live], compute_uv=False)[:, 0]
        _check_orthonormal_isotropic(space, q, (self.tol * (1.0 + norms))[:, None])
        separation = np.linalg.svd(np.swapaxes(q[:, 0], -1, -2) @ space.form @ q[:, 1],
                                   compute_uv=False)[:, -1]
        return live, q, separation


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
              tol=DEFAULT_TOL, _bank=None, _frames=None):
    """Search a finite set S with s*g (r, eps)-proximal for every ball word.

    For every word g in the ball, candidate correctors are tried in
    deterministic order (empty word first, then the search ball); the first s
    whose product passes the certificate wins.  Words with no corrector are
    reported as failures, not errors.  Round k certifies candidate k for
    every word still uncovered, as one stacked computation, on frames
    transported from one split per conjugacy class (_ClassFrames), with the
    checks of is_r_eps_proximal.  _bank, if given, must be
    sample_isotropic_bank(rep.space, seed, samples); _frames, if given, is
    the class table margulis.spectrum filled with the same tol.
    """
    if ball_length < 1 or search_length < 1:
        raise ParameterError("ball and search lengths must be >= 1")
    _check_parameters(r, eps, samples)
    bank = sample_isotropic_bank(rep.space, seed, samples) if _bank is None else _bank
    table = _ClassFrames(rep, tol, _frames)
    words, gw = zip(*((w, g.linear) for w, g in ball_elements(rep, ball_length)))
    gw = np.array(gw)
    hits = [None] * len(words)
    uncovered = np.arange(len(words))
    for s, gs in [(EMPTY_WORD, identity_isometry(rep.space)),
                  *ball_elements(rep, search_length)]:
        if not uncovered.size:
            break
        g = gs.linear @ gw[uncovered]
        live, q, separation = table.transported(
            [reduce_letters(s.letters + words[i].letters).letters for i in uncovered], g)
        ok = separation > tol
        live, q = live[ok], q[ok]
        admissible, margin = _certify(rep.space, g[live], q[:, 0], q[:, 1], bank, eps)
        passed = np.zeros(len(uncovered), dtype=bool)
        passed[live] = (admissible > 0) & (separation[ok] >= r) & (margin > 0.0)
        for i in uncovered[passed]:
            hits[i] = s
        uncovered = uncovered[~passed]
    assignment = {w: s for w, s in zip(words, hits) if s is not None}
    return AmsCover(r=float(r), eps=float(eps), ball_length=int(ball_length),
                    search_length=int(search_length), assignment=assignment,
                    correcting_set=tuple(dict.fromkeys(assignment.values())),
                    failures=tuple(w for w, s in zip(words, hits) if s is None))
