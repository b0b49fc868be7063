"""Correctness checks on one emitted properaffine report.

Every check raises CheckFailed with the first violation it finds.  None
compares against a stored copy of earlier output: the spectrum is held to
the 50-digit oracle and to identities that any correct Margulis invariant
satisfies, and the cover and verdict blocks to counts and expectations that
follow from the workload's definition.

Tolerance.  Float evaluation of a word with linear part A rounds at the
scale 2^-52 ||A||, the neutral vector moves by that much times ||A||, and
alpha pairs it with a translation of size ~||A||: the error of alpha grows
like 2^-52 ||A||^2.  So alpha, the gap and the proxy of a word w may be off
by at most TOL_SCALE * (1 + ||A_w||_F^2), 64 times that scale: absolute for
alpha, relative for gap and proxy.  The sign of alpha must match the oracle
whatever the tolerance.
"""

import copy

import mpmath

TOL_SCALE = 2.0 ** -46


class CheckFailed(AssertionError):
    """A report violates a property that every correct report has."""


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


def ball_count(rank, length):
    """Reduced words of length 1..length in the free group of that rank."""
    return sum(2 * rank * (2 * rank - 1) ** (m - 1) for m in range(1, length + 1))


def _display(letters):
    return " ".join(chr(ord("a") + abs(l) - 1) + ("" if l > 0 else "⁻¹")
                    for l in letters) or "1"


def alpha_errors(report, oracle):
    """{word: relative error of the emitted alpha against the oracle}."""
    out = {}
    for e in report["spectrum"]["entries"]:
        w = tuple(e["word"]["letters"])
        alpha = oracle[w][0]
        out[w] = float(abs((mpmath.mpf(e["alpha"]) - alpha) / alpha))
    return out


def oracle_agreement(report, oracle):
    """Signs match the oracle; alpha, gap and proxy are within tolerance."""
    for e in report["spectrum"]["entries"]:
        w = tuple(e["word"]["letters"])
        alpha, gap, proxy, norm = oracle[w]
        tol = TOL_SCALE * (1.0 + float(norm) ** 2)
        _require((e["alpha"] > 0) == (alpha > 0),
                 "alpha(%s) = %r has the wrong sign (oracle %s)"
                 % (_display(w), e["alpha"], mpmath.nstr(alpha, 17)))
        err = abs(mpmath.mpf(e["alpha"]) - alpha)
        _require(err <= tol, "alpha(%s) = %r is %.3g from the oracle %s "
                 "(tolerance %.3g)" % (_display(w), e["alpha"], float(err),
                                       mpmath.nstr(alpha, 17), tol))
        for name, want in (("gap", gap), ("length_proxy", proxy)):
            rel = float(abs((mpmath.mpf(e[name]) - want) / want))
            _require(rel <= tol, "%s(%s) = %r has relative error %.3g "
                     "(tolerance %.3g)" % (name, _display(w), e[name], rel, tol))


def spectrum_properties(report, n, ball, oracle):
    """Word count, field consistency, inverse symmetry, rotations, powers."""
    spec = report["spectrum"]
    entries = {tuple(e["word"]["letters"]): e for e in spec["entries"]}
    _require(len(spec["entries"]) + len(spec["skipped"]) == ball_count(2, ball),
             "%d entries + %d skipped != %d ball words"
             % (len(spec["entries"]), len(spec["skipped"]), ball_count(2, ball)))
    _require(len(entries) == len(spec["entries"]), "duplicate words in the spectrum")

    def tol(w):
        return TOL_SCALE * (1.0 + float(oracle[w][3]) ** 2)

    for w, e in entries.items():
        sign = "+" if e["alpha"] > 0 else "-"
        _require(e["sign"] == sign, "sign field %r of %s disagrees with alpha %r"
                 % (e["sign"], _display(w), e["alpha"]))
        _require(abs(e["normalized"] - e["alpha"] / e["length_proxy"])
                 <= 1e-12 * abs(e["normalized"]),
                 "normalized(%s) != alpha / length_proxy" % _display(w))

    parity = (-1) ** (n + 1)
    for w, e in entries.items():
        inv = tuple(-l for l in reversed(w))
        if inv in entries:
            got = entries[inv]["alpha"]
            _require(abs(got - parity * e["alpha"]) <= tol(w) + tol(inv),
                     "alpha(%s) / alpha(%s) = %r, expected %d"
                     % (_display(inv), _display(w), got / e["alpha"], parity))
        if w[0] == -w[-1]:
            continue          # not cyclically reduced
        for k in range(1, len(w)):
            rot = w[k:] + w[:k]
            if rot in entries:
                _require(abs(entries[rot]["alpha"] - e["alpha"]) <= tol(w) + tol(rot),
                         "alpha(%s) = %r differs from its rotation alpha(%s) = %r"
                         % (_display(rot), entries[rot]["alpha"], _display(w),
                            e["alpha"]))
        for k in range(2, ball // len(w) + 1):
            pw = w * k
            if pw in entries:
                _require(abs(entries[pw]["alpha"] - k * e["alpha"])
                         <= tol(pw) + k * tol(w),
                         "alpha(%s) = %r, expected %d * alpha(%s) = %r"
                         % (_display(pw), entries[pw]["alpha"], k, _display(w),
                            k * e["alpha"]))


def cover_properties(report, ball):
    prox = report["proximality"]
    cover = prox["cover"]
    _require(cover["assignment_size"] + len(cover["failures"]) == ball_count(2, ball),
             "cover assignment %d + failures %d != %d ball words"
             % (cover["assignment_size"], len(cover["failures"]),
                ball_count(2, ball)))
    card = report["scorecard"]
    _require(card["cover_failures"] == cover["failures"],
             "scorecard and proximality blocks disagree on cover failures")
    _require(card["cover_set_size"] == len(cover["correcting_set"]),
             "scorecard and proximality blocks disagree on the correcting set")
    _require(len(prox["generator_certificates"]) == 2,
             "expected one certificate per generator")


def check_report(report, workload, oracle):
    """All checks for one workload's report."""
    n, ball = workload.n, workload.ball
    _require(report["parameters"]["ball_length"] == ball, "wrong ball length")
    spec = report["spectrum"]
    _require(spec["verdict"] == workload.spectrum_verdict,
             "spectrum verdict %r, expected %r"
             % (spec["verdict"], workload.spectrum_verdict))
    if workload.witnesses is not None:
        got = [w["display"] for w in spec["witnesses"]]
        _require(got == list(workload.witnesses),
                 "mixed-sign witnesses %r, expected %r" % (got, workload.witnesses))
    oracle_agreement(report, oracle)
    spectrum_properties(report, n, ball, oracle)
    if workload.command == "scorecard":
        verdict = report["scorecard"]["verdict"]
        _require(verdict in workload.scorecard_verdicts,
                 "scorecard verdict %r, expected one of %r"
                 % (verdict, workload.scorecard_verdicts))
        cover_properties(report, ball)
    else:
        _require(report["scorecard"] is None and report["proximality"] is None,
                 "spectrum command emitted scorecard or proximality blocks")


def corrupted_reports(report):
    """Copies of a report with one alpha sign flipped and one alpha scaled by 1.01."""
    # the flip hits the deepest word, where only the sign is held tightly;
    # the scaling hits the first generator, where the tolerance is ~1e-12
    flipped = copy.deepcopy(report)
    e = flipped["spectrum"]["entries"][-1]
    e["alpha"], e["normalized"] = -e["alpha"], -e["normalized"]
    e["sign"] = "-" if e["sign"] == "+" else "+"
    scaled = copy.deepcopy(report)
    e = scaled["spectrum"]["entries"][0]
    e["alpha"] *= 1.01
    e["normalized"] *= 1.01
    return {"sign_flipped": flipped, "alpha_scaled_1.01": scaled}


def self_test(report, workload, oracle):
    """Check that each corrupted copy of a passing report is refused."""
    for name, bad in corrupted_reports(report).items():
        try:
            check_report(bad, workload, oracle)
        except CheckFailed:
            continue
        raise CheckFailed("self-test: the checks accepted a report with %s" % name)
