"""Numerical evidence for contraction properties and the affine scorecard.

The flow is realized only along periodic orbits, via matrix powers of word
images: attracting/repelling frames sample the boundary map, pairwise
J-pairings measure transversality, and least-squares slopes of restricted
log singular values over k = 1..kmax stand in for the continuous-time
contraction constants.  The scorecard aggregates these with the sign test
and the cover search; its verdict is numerical evidence, never proof.
"""

from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_TOL,
    orthonormalize_oriented,
    _principal_angles,
    _readonly,
)
from .group import ball_elements, evaluate_word
from .margulis import SpectrumReport, spectrum
from .proximal import (
    AmsCover,
    NotProximalError,
    TransversalityError,
    ams_cover,
    neutral_vector,
    spectral_split,
)

SCORECARD_DISCLAIMER = ("all quantities are finite-precision numerical evidence "
                        "from periodic-orbit data; no verdict is a proof")


@dataclass(frozen=True)
class LimitSample:
    """Attracting/repelling frames and gap of one proximal word image."""

    word: object
    attracting: object
    repelling: object
    gap: float


def limit_map_samples(rep, ball_length):
    """Boundary-map samples over the word ball, plus the skipped words.

    Deterministic word order; words with non-proximal image are recorded in
    the second return value rather than raising.
    """
    samples = []
    skipped = []
    for w, g in ball_elements(rep, ball_length):
        try:
            split = spectral_split(rep.space, g.linear, tol=rep.tol)
        except NotProximalError:
            skipped.append(w)
            continue
        samples.append(LimitSample(word=w, attracting=split.attracting,
                                   repelling=split.repelling, gap=split.gap))
    return samples, skipped


@dataclass(frozen=True)
class TransversalityMatrix:
    """Pairwise attracting-frame margins; NaN marks excluded same-point pairs."""

    margins: np.ndarray
    min_margin: float
    excluded_pairs: int


def transversality_matrix(space, samples, same_point_tol=1e-6):
    """Pairwise margins between attracting frames of distinct boundary points.

    The margin of a pair is the smallest singular value of the J-pairing of
    the two attracting frames.  Pairs whose attracting AND repelling data
    coincide (powers, conjugates fixing the same points) are excluded: their
    pairing is legitimately singular and says nothing about transversality.
    All frames are orthonormalized in one stacked QR, and every pair's angles
    and pairing come from one stacked call each.
    """
    if len(samples) < 2:
        raise ValueError("need at least 2 samples")
    m = len(samples)
    q = orthonormalize_oriented(np.array(
        [(s.attracting.columns, s.repelling.columns) for s in samples]))
    i, j = np.triu_indices(m, 1)
    same = (_principal_angles(q[i], q[j]).max(-1) < same_point_tol).all(-1)
    sv = np.linalg.svd(np.swapaxes(q[i, 0], -1, -2) @ space.form @ q[j, 0],
                       compute_uv=False)[:, -1]
    keep = ~same
    margins = np.full((m, m), np.nan)
    margins[i[keep], j[keep]] = margins[j[keep], i[keep]] = sv[keep]
    min_margin = float(sv[keep].min()) if keep.any() else np.nan
    return TransversalityMatrix(margins=_readonly(margins), min_margin=min_margin,
                                excluded_pairs=int(same.sum()))


@dataclass(frozen=True)
class ContractionTrace:
    """Restricted log singular values of powers and their fitted slopes."""

    k_values: np.ndarray
    log_sv_plus: np.ndarray
    log_sv_minus: np.ndarray
    slope_plus: float
    slope_minus: float
    residual_plus: float
    residual_minus: float
    gap: float


def contraction_trace(space, a, kmax, tol=DEFAULT_TOL):
    """Power-contraction diagnostics of a proximal element.

    Restricts A^k to the attracting and repelling subspaces (bases fixed once
    from the splitting, Euclidean-orthonormal) and fits k -> min log singular
    value on V+ (slope should be +gap) and k -> max log singular value on V-
    (slope should be -gap); residuals are max absolute fit deviations.
    """
    a = np.asarray(a, dtype=float)
    split = spectral_split(space, a, tol=tol)
    return _trace(space, a, split.attracting, split.repelling, split.gap, kmax)


def _trace(space, a, attracting, repelling, gap, kmax):
    """contraction_trace of a from its split's frames and gap: one stacked QR
    of both frames and one stacked SVD of all restricted powers."""
    if kmax < 3:
        raise ValueError("kmax must be >= 3")
    q = orthonormalize_oriented(np.stack([attracting.columns, repelling.columns]))
    # power the restrictions, not the ambient matrix: the contracting signal
    # in A^k is below the absolute float error of its large entries
    r = np.swapaxes(q, -1, -2) @ a @ q
    powers = np.empty((2, kmax, space.n, space.n))
    rk = np.eye(space.n)
    for k in range(kmax):
        rk = rk @ r
        powers[:, k] = rk
    sv = np.linalg.svd(powers, compute_uv=False)
    ks = np.arange(1, kmax + 1)
    log_plus = np.log(sv[0, :, -1])
    log_minus = np.log(sv[1, :, 0])
    fit_p = np.polyfit(ks, log_plus, 1)
    fit_m = np.polyfit(ks, log_minus, 1)
    res_p = float(np.abs(np.polyval(fit_p, ks) - log_plus).max())
    res_m = float(np.abs(np.polyval(fit_m, ks) - log_minus).max())
    return ContractionTrace(k_values=_readonly(ks.astype(float)),
                            log_sv_plus=_readonly(log_plus),
                            log_sv_minus=_readonly(log_minus),
                            slope_plus=float(fit_p[0]), slope_minus=float(fit_m[0]),
                            residual_plus=res_p, residual_minus=res_m,
                            gap=gap)


@dataclass(frozen=True)
class Splitting:
    """The three-way splitting V+ , neutral line, V- at a transverse pair."""

    v_plus: np.ndarray
    neutral_line: np.ndarray
    v_minus: np.ndarray
    min_singular_value: float
    condition_number: float


def splitting_at(space, vplus, vminus, tol=DEFAULT_TOL):
    """Frames (V+, L, V-) spanning the ambient space, L the b-positive line."""
    nu = neutral_vector(space, vplus, vminus, tol=tol)
    qp = orthonormalize_oriented(vplus)
    qm = orthonormalize_oriented(vminus)
    assembled = np.hstack([qp, nu[:, None], qm])
    sv = np.linalg.svd(assembled, compute_uv=False)
    if sv[-1] <= tol:
        raise TransversalityError("assembled splitting basis singular "
                                  "(smallest sv %.3e)" % sv[-1])
    return Splitting(v_plus=_readonly(qp), neutral_line=_readonly(nu[:, None]),
                     v_minus=_readonly(qm), min_singular_value=float(sv[-1]),
                     condition_number=float(sv[0] / sv[-1]))


@dataclass(frozen=True)
class ScorecardVerdict:
    """kind in {consistent_affine_anosov, inconsistent, insufficient_evidence}."""

    kind: str
    reasons: tuple


@dataclass(frozen=True)
class Scorecard:
    """Aggregated diagnostics backing the affine-Anosov consistency verdict."""

    label: str
    ball_length: int
    min_transversality_margin: float
    min_gap: float
    max_slope_deviation: float
    max_residual: float
    spectrum: SpectrumReport
    cover: AmsCover
    thresholds: dict
    verdict: ScorecardVerdict
    disclaimer: str = SCORECARD_DISCLAIMER

    @property
    def spectrum_verdict(self):
        return self.spectrum.verdict

    @property
    def skipped_words(self):
        return self.spectrum.skipped

    @property
    def cover_failures(self):
        return self.cover.failures

    @property
    def cover_set_size(self):
        return len(self.cover.correcting_set)


def affine_anosov_scorecard(rep, ball_length=4, r=0.45, eps=0.21, samples=2000,
                            seed=0, search_length=1, kmax=20,
                            margin_threshold=1e-6, residual_threshold=1e-6,
                            slope_threshold=1e-6, zero_tol=None, label="",
                            _bank=None):
    """Combined scorecard: transversality, contraction, sign test, cover search.

    Contraction traces run on the proximal length-1 words: those are the
    elements the catalog pins down, and for longer non-normal products the
    restricted singular values carry a transient that decays only
    geometrically, which would drown the residual threshold without saying
    anything about contraction itself.  The ball is split once, by the
    spectrum; frames are sampled at generator level only, and each trace
    reads its sample's frames and gap.  _bank is handed to ams_cover.
    """
    spec = spectrum(rep, ball_length, zero_tol=zero_tol, label=label)
    gen_samples, nonprox_generators = limit_map_samples(rep, 1)
    min_gap = min((e.gap for e in spec.entries), default=np.nan)
    # gate transversality at generator level: attracting points of distinct
    # deep words get arbitrarily close (the limit set is dense), so a fixed
    # threshold on ball-level pair margins would reject every genuine example
    if len(gen_samples) >= 2:
        tmat = transversality_matrix(rep.space, gen_samples)
        min_margin = tmat.min_margin
    else:
        min_margin = np.nan

    slope_dev = 0.0
    residual = 0.0
    for s in gen_samples:
        trace = _trace(rep.space, evaluate_word(rep, s.word).linear,
                       s.attracting, s.repelling, s.gap, kmax)
        slope_dev = max(slope_dev, abs(trace.slope_plus - trace.gap),
                        abs(trace.slope_minus + trace.gap))
        residual = max(residual, trace.residual_plus, trace.residual_minus)

    cover = ams_cover(rep, r=r, eps=eps, ball_length=ball_length,
                      search_length=search_length, samples=samples, seed=seed,
                      tol=rep.tol, _bank=_bank)

    reasons = []
    if nonprox_generators:
        reasons = ["non-proximal generator word %s" % w.display()
                   for w in nonprox_generators]
        verdict = ScorecardVerdict("insufficient_evidence", tuple(reasons))
    elif spec.verdict.kind in ("mixed", "degenerate"):
        if spec.verdict.kind == "mixed":
            pos, neg = spec.verdict.witnesses
            reasons.append("mixed signs: alpha(%s) > 0, alpha(%s) < 0"
                           % (pos.display(), neg.display()))
        else:
            witness = spec.verdict.witnesses[0].display() if spec.verdict.witnesses else "all words skipped"
            reasons.append("degenerate invariant: %s" % witness)
        verdict = ScorecardVerdict("inconsistent", tuple(reasons))
    else:
        if not np.isnan(min_margin) and min_margin < margin_threshold:
            reasons.append("transversality margin %.3e below threshold" % min_margin)
        if slope_dev > slope_threshold:
            reasons.append("contraction slope deviates from gap by %.3e" % slope_dev)
        if residual > residual_threshold:
            reasons.append("contraction residual %.3e above threshold" % residual)
        if reasons:
            verdict = ScorecardVerdict("inconsistent", tuple(reasons))
        else:
            soft = []
            if cover.failures:
                soft.append("%d ball words without an (r,eps) corrector"
                            % len(cover.failures))
            if spec.skipped:
                soft.append("%d non-proximal words skipped" % len(spec.skipped))
            if soft:
                verdict = ScorecardVerdict("insufficient_evidence", tuple(soft))
            else:
                verdict = ScorecardVerdict("consistent_affine_anosov", ())

    thresholds = {"margin": margin_threshold, "residual": residual_threshold,
                  "slope": slope_threshold, "kmax": kmax}
    return Scorecard(label=label, ball_length=int(ball_length),
                     min_transversality_margin=float(min_margin),
                     min_gap=float(min_gap),
                     max_slope_deviation=float(slope_dev),
                     max_residual=float(residual),
                     spectrum=spec, cover=cover,
                     thresholds=thresholds, verdict=verdict)
