"""Margulis invariants, length proxies, and sign spectra over word balls.

The invariant of an affine isometry g = (A, u) with proximal linear part is
the b-pairing of the translation with the neutral vector of A's splitting:
alpha(g) = b(u, nu).  It is basepoint independent (A fixes nu and preserves
b), conjugation invariant, and additive along powers.

The spectrum of a representation over a word ball implements the necessary
direction of the opposite-sign test: a properly acting group must have all
invariants of one strict sign, so a mixed or degenerate spectrum certifies
non-properness, while a uniform spectrum is evidence only.  Since alpha is a
class function with alpha(g^-1) = (-1)^(n+1) alpha(g), the spectrum splits
one element per conjugacy class (up to inversion), its shortest member, and
every conjugate and inverse in the ball carries that class's values.

Length proxy: the flow-space translation length is defined only up to metric
equivalence, so the artifact uses log of the top eigenvalue modulus, which
shares the two properties every legitimate proxy has: positivity on proximal
elements and exact additivity along powers.  Reports state this choice.
"""

from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_TOL
from .group import ReducedWord, ball_elements, conjugacy_key, inverse, power
from .proximal import NotProximalError, proximal_moduli, spectral_split

LENGTH_PROXY_NOTE = ("length_proxy is log of the top eigenvalue modulus of the "
                     "linear part; it stands in for a flow-space translation "
                     "length that is only defined up to metric equivalence")


class ZeroInvariantError(ValueError):
    """alpha(g) vanishes, so a normalized/relative quantity is undefined."""


def default_zero_tol(translation):
    """Scale-aware zero threshold for alpha: 1e-10 * (1 + |u|)."""
    return 1e-10 * (1.0 + float(np.linalg.norm(translation)))


def margulis_invariant(space, g, tol=DEFAULT_TOL):
    """alpha(g) = b(u, nu) with nu the neutral vector of the linear part.

    Equals b(g x - x, nu) for every basepoint x, since (A - I) x pairs to zero
    against the fixed b-unit vector nu.
    """
    split = spectral_split(space, g.linear, tol=tol)
    return float(g.translation @ space.form @ split.neutral)


def translation_length_proxy(space, a, tol=DEFAULT_TOL):
    """log of the largest eigenvalue modulus; positive and power-additive."""
    moduli = proximal_moduli(space, a, tol=tol)
    return float(np.log(moduli[0]))


@dataclass(frozen=True)
class WordInvariant:
    """Per-word invariant row: alpha, proxy, normalized value, sign, gap."""

    word: ReducedWord
    alpha: float
    length_proxy: float
    normalized: float
    sign: str
    gap: float


@dataclass(frozen=True)
class SpectrumVerdict:
    """kind in {uniform_positive, uniform_negative, mixed, degenerate}.

    mixed carries a (positive word, negative word) witness pair; degenerate
    carries the first zero-invariant word, or no witness when the ball had no
    proximal word at all.
    """

    kind: str
    witnesses: tuple


@dataclass(frozen=True)
class SpectrumReport:
    label: str
    ball_length: int
    entries: tuple
    verdict: SpectrumVerdict
    skipped: tuple
    length_proxy_note: str = LENGTH_PROXY_NOTE


def _verdict(entries):
    # a sign conflict is the strongest certificate, so mixed wins over a zero
    pos = next((e.word for e in entries if e.sign == "+"), None)
    neg = next((e.word for e in entries if e.sign == "-"), None)
    if pos is not None and neg is not None:
        return SpectrumVerdict("mixed", (pos, neg))
    zero = next((e.word for e in entries if e.sign == "0"), None)
    if zero is not None or not entries:
        return SpectrumVerdict("degenerate", (zero,) if zero is not None else ())
    if pos is not None:
        return SpectrumVerdict("uniform_positive", ())
    return SpectrumVerdict("uniform_negative", ())


def spectrum(rep, ball_length, zero_tol=None, label="", _frames=None):
    """Margulis invariants over the word ball, with the opposite-sign verdict.

    Words whose linear part is not proximal are skipped and recorded; a mixed
    or degenerate verdict certifies that the action is not proper, a uniform
    verdict is necessary-condition evidence only.

    The ball is evaluated in one prefix walk and split once per conjugacy
    class, taken together with its inverse class: the first member in ball
    order, which is cyclically reduced and so one of the shortest, is split,
    and every later member carries its gap, length proxy and alpha,
    the latter times (-1)^(n+1) when the member is conjugate to the inverse.
    Each word's sign still uses its own zero threshold.  _frames, if given,
    receives each split member's letters with its stacked Schur frames
    (V+, V-), or None: the class table of proximal.ams_cover.
    """
    parity = (-1.0) ** (rep.space.n + 1)
    classes = {}
    entries = []
    skipped = []
    for w, g in ball_elements(rep, ball_length):
        key, inverted = conjugacy_key(w)
        # takes alpha(w) to the key's orientation and back
        factor = parity if inverted else 1.0
        if key not in classes:
            try:
                split = spectral_split(rep.space, g.linear, tol=rep.tol)
            except NotProximalError:
                classes[key] = split = None
            else:
                alpha = float(g.translation @ rep.space.form @ split.neutral)
                classes[key] = (factor * alpha,
                                float(np.log(split.eigenvalue_moduli[0])),
                                split.gap)
            if _frames is not None:
                _frames[w.letters] = None if split is None else np.stack(
                    [split.attracting.columns, split.repelling.columns])
        if classes[key] is None:
            skipped.append(w)
            continue
        alpha, proxy, gap = classes[key]
        alpha = factor * alpha
        zt = default_zero_tol(g.translation) if zero_tol is None else zero_tol
        sign = "0" if abs(alpha) <= zt else ("+" if alpha > 0 else "-")
        entries.append(WordInvariant(word=w, alpha=alpha, length_proxy=proxy,
                                     normalized=alpha / proxy, sign=sign,
                                     gap=gap))
    return SpectrumReport(label=label, ball_length=int(ball_length),
                          entries=tuple(entries), verdict=_verdict(entries),
                          skipped=tuple(skipped))


def power_additivity_check(space, g, kmax, zero_tol=None, tol=DEFAULT_TOL):
    """max over 2 <= k <= kmax of |alpha(g^k) - k alpha(g)| / (k |alpha(g)|)."""
    if kmax < 2:
        raise ValueError("kmax must be >= 2")
    alpha = margulis_invariant(space, g, tol=tol)
    zt = default_zero_tol(g.translation) if zero_tol is None else zero_tol
    if abs(alpha) <= zt:
        raise ZeroInvariantError("alpha(g) = %.3e is below the zero threshold; "
                                 "relative deviation undefined" % alpha)
    worst = 0.0
    for k in range(2, kmax + 1):
        ak = margulis_invariant(space, power(g, k), tol=tol)
        worst = max(worst, abs(ak - k * alpha) / (k * abs(alpha)))
    return worst


def inverse_symmetry_probe(space, g, tol=DEFAULT_TOL):
    """Ratio alpha(g^{-1}) / alpha(g); equals (-1)^(n+1) by the sign convention.

    The neutral vector of A^{-1} is (-1)^n times that of A (argument-swap
    parity of the orientation convention), which combined with
    b(A^{-1}u, nu) = b(u, nu) gives the ratio; the even/odd dichotomy in n is
    exactly the classical obstruction to proper actions for even n.
    """
    alpha = margulis_invariant(space, g, tol=tol)
    if abs(alpha) <= default_zero_tol(g.translation):
        raise ZeroInvariantError("alpha(g) below zero threshold")
    return margulis_invariant(space, inverse(g), tol=tol) / alpha
