"""Representation documents, analysis reports, and CSV/SVG emission.

The input format is a JSON document (schema_version "1") with fields n,
rank, generators (row-major linear matrix plus translation vector each),
optional tolerances, and a label.  All numbers serialize as shortest
round-trip decimals, so emit(parse(doc)) preserves every numeric field and
identical runs produce byte-identical output apart from the timing block.
"""

import hashlib
import io
import json
import time
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .anosov import affine_anosov_scorecard
from .core import DEFAULT_TOL, standard_form
from .group import AffineIsometry, FreeGroupRep
from .margulis import LENGTH_PROXY_NOTE, spectrum
from .proximal import (
    InsufficientSamplesError,
    NotProximalError,
    ParameterError,
    TransversalityError,
    ams_cover,
    is_r_eps_proximal,
    sample_isotropic_bank,
)

SCHEMA_VERSION = "1"
CSV_HEADER = "word,alpha,length_proxy,normalized,sign,gap"

SIGN_COLORS = {"+": "#2166ac", "-": "#b2182b", "0": "#7f7f7f"}


_CERTIFICATE_FAILURES = {NotProximalError: "not proximal",
                        InsufficientSamplesError: "insufficient samples",
                        TransversalityError: "not transverse"}


class DocumentError(ValueError):
    """Malformed or inconsistent representation document."""


def _json_bytes(data):
    """Indented, key-sorted JSON of data plus a newline, as bytes, encoded 2048
    encoder chunks (about 17k characters) at a time: never one str in full."""
    out = io.BytesIO()
    chunks = json.JSONEncoder(indent=2, sort_keys=True).iterencode(data)
    while batch := "".join(islice(chunks, 2048)):
        out.write(batch.encode())
    out.write(b"\n")
    return out.getvalue()


@dataclass(frozen=True)
class RepDocument:
    """Portable form of a representation; field names are the wire format."""

    schema_version: str
    n: int
    rank: int
    generators: tuple   # of {"linear": row-major floats, "translation": floats}
    label: str = ""
    tolerances: dict = None

    def to_dict(self):
        out = {
            "schema_version": self.schema_version,
            "n": self.n,
            "rank": self.rank,
            "generators": [dict(g) for g in self.generators],
            "label": self.label,
        }
        if self.tolerances:
            out["tolerances"] = dict(self.tolerances)
        return out

    def to_bytes(self):
        return _json_bytes(self.to_dict())

    def digest(self):
        """Content hash of the mathematical payload, independent of the label."""
        payload = self.to_dict()
        payload.pop("label", None)
        return hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode()).hexdigest()


def rep_to_document(rep, label=""):
    gens = tuple(
        {"linear": [float(x) for x in g.linear.ravel()],
         "translation": [float(x) for x in g.translation]}
        for g in rep.generators
    )
    return RepDocument(schema_version=SCHEMA_VERSION, n=rep.space.n,
                       rank=rep.rank, generators=gens, label=label)


def _require(cond, message):
    if not cond:
        raise DocumentError(message)


def document_from_dict(data):
    _require(isinstance(data, dict), "document must be a JSON object")
    for key in ("schema_version", "n", "rank", "generators"):
        _require(key in data, "missing field %r" % key)
    _require(str(data["schema_version"]) == SCHEMA_VERSION,
             "unsupported schema_version %r" % data["schema_version"])
    n = data["n"]
    rank = data["rank"]
    _require(isinstance(n, int) and n >= 1, "n must be a positive integer")
    _require(isinstance(rank, int) and rank >= 2, "rank must be an integer >= 2")
    gens = data["generators"]
    _require(isinstance(gens, list) and len(gens) == rank,
             "generators must be a list of length rank=%r" % rank)
    d = 2 * n + 1
    out = []
    for i, g in enumerate(gens):
        _require(isinstance(g, dict) and "linear" in g and "translation" in g,
                 "generator %d must have linear and translation fields" % (i + 1))
        lin = g["linear"]
        tra = g["translation"]
        _require(len(lin) == d * d,
                 "generator %d: linear has %d entries, expected %d"
                 % (i + 1, len(lin), d * d))
        _require(len(tra) == d,
                 "generator %d: translation has %d entries, expected %d"
                 % (i + 1, len(tra), d))
        out.append({"linear": [float(x) for x in lin],
                    "translation": [float(x) for x in tra]})
    return RepDocument(schema_version=SCHEMA_VERSION, n=n, rank=rank,
                       generators=tuple(out), label=str(data.get("label", "")),
                       tolerances=data.get("tolerances"))


def parse_rep(raw):
    """Bytes/str/dict -> validated FreeGroupRep.

    Raises DocumentError for malformed documents and MembershipError (naming
    the generator and the numeric defect) for invalid group elements.
    """
    if isinstance(raw, (bytes, str)):
        try:
            data = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise DocumentError("not valid JSON: %s" % exc) from exc
    else:
        data = raw
    doc = data if isinstance(data, RepDocument) else document_from_dict(data)
    return build_rep(doc)


def build_rep(doc):
    space = standard_form(doc.n)
    tol = DEFAULT_TOL
    if doc.tolerances and "membership" in doc.tolerances:
        tol = float(doc.tolerances["membership"])
    d = space.dim
    gens = []
    for g in doc.generators:
        lin = np.array(g["linear"], dtype=float).reshape(d, d)
        gens.append(AffineIsometry(space, lin, np.array(g["translation"])))
    return FreeGroupRep(space=space, generators=tuple(gens), tol=tol)


@dataclass(frozen=True)
class ReportParameters:
    ball_length: int = 4
    r: float = 0.45
    eps: float = 0.21
    samples: int = 2000
    seed: int = 0
    search_length: int = 1
    kmax: int = 20
    margin_threshold: float = 1e-6
    residual_threshold: float = 1e-6
    zero_tol: float = None

    def validate(self):
        if self.eps >= self.r / 2.0 or self.eps <= 0 or self.r <= 0:
            raise ParameterError("need 0 < eps < r/2 (got r=%g, eps=%g)"
                                 % (self.r, self.eps))
        if self.ball_length < 1 or self.samples < 1 or self.search_length < 1:
            raise ParameterError("ball_length, samples and search_length must be >= 1")

    def to_dict(self):
        return {
            "ball_length": self.ball_length, "r": self.r, "eps": self.eps,
            "samples": self.samples, "seed": self.seed,
            "search_length": self.search_length, "kmax": self.kmax,
            "margin_threshold": self.margin_threshold,
            "residual_threshold": self.residual_threshold,
            "zero_tol": self.zero_tol,
        }


def _word_fields(word):
    return {"letters": list(word.letters), "display": word.display()}


def _entry_dict(e):
    return {
        "word": _word_fields(e.word),
        "alpha": e.alpha,
        "length_proxy": e.length_proxy,
        "normalized": e.normalized,
        "sign": e.sign,
        "gap": e.gap,
    }


@dataclass(frozen=True)
class ReportDocument:
    """Structured analysis report; deterministic apart from the timing block."""

    input_digest: str
    label: str
    parameters: dict
    length_proxy_note: str
    spectrum: dict
    scorecard: dict
    proximality: dict
    timing: dict

    def to_dict(self):
        return {
            "schema_version": SCHEMA_VERSION,
            "input_digest": self.input_digest,
            "label": self.label,
            "parameters": self.parameters,
            "length_proxy_note": self.length_proxy_note,
            "spectrum": self.spectrum,
            "scorecard": self.scorecard,
            "proximality": self.proximality,
            "timing": self.timing,
        }

    def to_bytes(self):
        return _json_bytes(self.to_dict())


ALL_BLOCKS = ("spectrum", "scorecard", "proximality")


def run_report(rep, params=None, label="", include=ALL_BLOCKS):
    """Pipeline over the requested blocks; scorecard implies spectrum.

    The sample bank is built once and shared by every certificate, and the
    cover is searched once: the proximality block reuses the scorecard's.
    The spectrum is computed once too: with the scorecard block it is the
    scorecard's own, and its time counts in scorecard_s.  A generator
    certificate that fails (_CERTIFICATE_FAILURES) is recorded with its error.
    """
    params = params or ReportParameters()
    params.validate()
    include = tuple(include)
    timing = {}
    spectrum_block = scorecard_block = proximality_block = None
    card = bank = None
    if "scorecard" in include or "proximality" in include:
        t0 = time.perf_counter()
        bank = sample_isotropic_bank(rep.space, params.seed, params.samples)
        timing["sample_bank_s"] = time.perf_counter() - t0

    if "scorecard" in include:
        t0 = time.perf_counter()
        card = affine_anosov_scorecard(
            rep, ball_length=params.ball_length, r=params.r, eps=params.eps,
            samples=params.samples, seed=params.seed,
            search_length=params.search_length, kmax=params.kmax,
            margin_threshold=params.margin_threshold,
            residual_threshold=params.residual_threshold,
            zero_tol=params.zero_tol, label=label, _bank=bank)
        timing["scorecard_s"] = time.perf_counter() - t0
        spec = card.spectrum
        scorecard_block = {
            "verdict": card.verdict.kind,
            "reasons": list(card.verdict.reasons),
            "min_transversality_margin": card.min_transversality_margin,
            "min_gap": card.min_gap,
            "max_slope_deviation": card.max_slope_deviation,
            "max_residual": card.max_residual,
            "skipped_words": [_word_fields(w) for w in card.skipped_words],
            "cover_failures": [_word_fields(w) for w in card.cover_failures],
            "cover_set_size": card.cover_set_size,
            "thresholds": card.thresholds,
            "disclaimer": card.disclaimer,
        }
    elif "spectrum" in include:
        t0 = time.perf_counter()
        spec = spectrum(rep, params.ball_length, zero_tol=params.zero_tol,
                        label=label)
        timing["spectrum_s"] = time.perf_counter() - t0

    if "spectrum" in include or "scorecard" in include:
        spectrum_block = {
            "verdict": spec.verdict.kind,
            "witnesses": [_word_fields(w) for w in spec.verdict.witnesses],
            "entries": [_entry_dict(e) for e in spec.entries],
            "skipped": [_word_fields(w) for w in spec.skipped],
        }

    if "proximality" in include:
        t0 = time.perf_counter()
        certs = []
        for i, g in enumerate(rep.generators):
            try:
                cert = is_r_eps_proximal(rep.space, g.linear, params.r,
                                         params.eps, params.samples,
                                         params.seed, tol=rep.tol, _bank=bank)
                certs.append({"generator": i + 1, "passed": bool(cert.passed),
                              "separation": cert.separation,
                              "margin_attract": cert.margin_attract,
                              "admissible": cert.admissible})
            except tuple(_CERTIFICATE_FAILURES) as exc:
                certs.append({"generator": i + 1, "passed": False,
                              "error": "%s: %s" % (_CERTIFICATE_FAILURES[type(exc)],
                                                   exc)})
        if card is None:
            cover = ams_cover(rep, r=params.r, eps=params.eps,
                              ball_length=params.ball_length,
                              search_length=params.search_length,
                              samples=params.samples, seed=params.seed,
                              tol=rep.tol, _bank=bank)
        else:
            cover = card.cover
        timing["proximality_s"] = time.perf_counter() - t0
        proximality_block = {
            "generator_certificates": certs,
            "cover": {
                "correcting_set": [_word_fields(w) for w in cover.correcting_set],
                "failures": [_word_fields(w) for w in cover.failures],
                "assignment_size": len(cover.assignment),
            },
        }

    digest = rep_to_document(rep, label=label).digest()
    return ReportDocument(input_digest=digest, label=label,
                          parameters=params.to_dict(),
                          length_proxy_note=LENGTH_PROXY_NOTE,
                          spectrum=spectrum_block, scorecard=scorecard_block,
                          proximality=proximality_block, timing=timing)


def emit_csv(report):
    """CSV of the word-invariant rows; header is part of the wire format."""
    if report.spectrum is None:
        raise ParameterError("csv output requires spectrum data in the report")
    lines = [CSV_HEADER]
    for e in report.spectrum["entries"]:
        lines.append("%s,%r,%r,%r,%s,%r"
                     % (e["word"]["display"], e["alpha"], e["length_proxy"],
                        e["normalized"], e["sign"], e["gap"]))
    return ("\n".join(lines) + "\n").encode()


def emit_svg(report):
    """Scatter of normalized invariant against word length, sign-colored."""
    if report.spectrum is None:
        raise ParameterError("svg output requires spectrum data in the report")
    entries = report.spectrum["entries"]
    width, height = 640, 420
    left, right, top, bottom = 60, 20, 48, 46
    plot_w = width - left - right
    plot_h = height - top - bottom
    xs = [len(e["word"]["letters"]) for e in entries]
    ys = [e["normalized"] for e in entries]
    xmax = max(xs, default=1)
    ylo = min(ys, default=-1.0)
    yhi = max(ys, default=1.0)
    if yhi - ylo < 1e-12:
        ylo, yhi = ylo - 1.0, yhi + 1.0
    pad = 0.05 * (yhi - ylo)
    ylo, yhi = ylo - pad, yhi + pad

    def px(x):
        return left + plot_w * (x / (xmax + 1.0))

    def py(y):
        return top + plot_h * (1.0 - (y - ylo) / (yhi - ylo))

    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
        'viewBox="0 0 %d %d">' % (width, height, width, height),
        '<rect width="100%" height="100%" fill="#ffffff"/>',
        '<text x="%d" y="24" font-family="sans-serif" font-size="15">'
        'normalized invariant (alpha / length proxy) vs word length%s</text>'
        % (left, (" - " + report.label) if report.label else ""),
        '<text x="%d" y="40" font-family="sans-serif" font-size="11" '
        'fill="#555555">verdict: %s; proxy: top log eigenvalue modulus</text>'
        % (left, report.spectrum["verdict"]),
        '<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="#333333"/>'
        % (left, top + plot_h, left + plot_w, top + plot_h),
        '<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="#333333"/>'
        % (left, top, left, top + plot_h),
    ]
    if ylo < 0 < yhi:
        parts.append('<line x1="%d" y1="%.2f" x2="%d" y2="%.2f" '
                     'stroke="#bbbbbb" stroke-dasharray="4 3"/>'
                     % (left, py(0.0), left + plot_w, py(0.0)))
    for m in range(1, xmax + 1):
        parts.append('<text x="%.2f" y="%d" font-family="sans-serif" '
                     'font-size="11" text-anchor="middle">%d</text>'
                     % (px(m), top + plot_h + 16, m))
    parts.append('<text x="%d" y="%.2f" font-family="sans-serif" font-size="11" '
                 'text-anchor="end">%.4g</text>' % (left - 6, py(yhi) + 4, yhi))
    parts.append('<text x="%d" y="%.2f" font-family="sans-serif" font-size="11" '
                 'text-anchor="end">%.4g</text>' % (left - 6, py(ylo) + 4, ylo))
    for e in entries:
        parts.append('<circle cx="%.2f" cy="%.2f" r="3" fill="%s" '
                     'fill-opacity="0.75"/>'
                     % (px(len(e["word"]["letters"])), py(e["normalized"]),
                        SIGN_COLORS[e["sign"]]))
    parts.append("</svg>")
    return ("\n".join(parts) + "\n").encode()


def emit(report, fmt):
    """Serialize a report as json, csv or svg bytes."""
    if fmt == "json":
        return report.to_bytes()
    if fmt == "csv":
        return emit_csv(report)
    if fmt == "svg":
        return emit_svg(report)
    raise ParameterError("unknown format %r (use json, csv or svg)" % fmt)
