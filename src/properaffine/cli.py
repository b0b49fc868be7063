"""Command line surface: check, spectrum, proximality, scorecard, catalog.

Exit codes: 0 = analysis ran (whatever the verdict), 2 = invalid input
document, 3 = invalid parameters or a numerical failure.  Verdicts are data
in the emitted reports, never exit codes.
"""

import argparse
import json
import sys
from pathlib import Path

from .core import GeometryError
from .repcatalog import CATALOG_NAMES, catalog
from .group import MembershipError, form_defect
from .proximal import ParameterError
from .reports import (
    DocumentError,
    ReportParameters,
    build_rep,
    document_from_dict,
    emit,
    run_report,
    _json_bytes,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_PARAMS = 3


class CliError(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; the contract reserves 2 for bad
    # input documents and 3 for bad parameters
    def error(self, message):
        self.print_usage(sys.stderr)
        raise CliError(EXIT_PARAMS, message)


def _add_common(sub):
    sub.add_argument("--rep", help="path to a representation document (JSON)")
    sub.add_argument("--catalog", dest="catalog_name", choices=CATALOG_NAMES,
                     help="use a built-in catalog representation")
    sub.add_argument("--ball", type=int, default=4, help="word-ball radius")
    sub.add_argument("--r", type=float, default=0.45,
                     help="proximality separation radius")
    sub.add_argument("--eps", type=float, default=0.21,
                     help="proximality neighborhood size (< r/2)")
    sub.add_argument("--samples", type=int, default=2000,
                     help="Monte Carlo samples per certificate")
    sub.add_argument("--seed", type=int, default=0, help="sampling seed")
    sub.add_argument("--search", type=int, default=1,
                     help="corrector search radius for the cover")
    sub.add_argument("--out", help="output path (default: stdout)")
    sub.add_argument("--format", choices=("json", "csv", "svg"), default="json")


def _load_rep(args):
    if args.rep and args.catalog_name:
        raise CliError(EXIT_PARAMS, "--rep and --catalog are mutually exclusive")
    if args.catalog_name:
        doc = catalog(args.catalog_name)
    elif args.rep:
        try:
            raw = Path(args.rep).read_bytes()
        except OSError as exc:
            raise CliError(EXIT_INPUT, "cannot read %s: %s" % (args.rep, exc))
        try:
            doc = document_from_dict(json.loads(raw))
        except (DocumentError, json.JSONDecodeError) as exc:
            raise CliError(EXIT_INPUT, "invalid document: %s" % exc)
    else:
        raise CliError(EXIT_PARAMS, "one of --rep or --catalog is required")
    try:
        rep = build_rep(doc)
    except (MembershipError, DocumentError) as exc:
        raise CliError(EXIT_INPUT, "invalid representation: %s" % exc)
    label = doc.label or args.catalog_name or Path(args.rep).stem
    return rep, label


def _params(args):
    try:
        p = ReportParameters(ball_length=args.ball, r=args.r, eps=args.eps,
                             samples=args.samples, seed=args.seed,
                             search_length=args.search)
        p.validate()
    except ParameterError as exc:
        raise CliError(EXIT_PARAMS, str(exc))
    return p


def _write(args, payload):
    if args.out:
        Path(args.out).write_bytes(payload)
    else:
        sys.stdout.buffer.write(payload)


BLOCKS_BY_COMMAND = {
    "spectrum": ("spectrum",),
    "proximality": ("proximality",),
    "scorecard": ("spectrum", "scorecard", "proximality"),
}


def _report_command(args):
    rep, label = _load_rep(args)
    report = run_report(rep, _params(args), label=label,
                        include=BLOCKS_BY_COMMAND[args.command])
    try:
        payload = emit(report, args.format)
    except ParameterError as exc:
        raise CliError(EXIT_PARAMS, str(exc))
    _write(args, payload)
    return EXIT_OK


def _check_command(args):
    rep, label = _load_rep(args)
    summary = {
        "label": label,
        "n": rep.space.n,
        "rank": rep.rank,
        "valid": True,
        "generators": [
            {"index": i + 1, "form_defect": form_defect(rep.space, g.linear)}
            for i, g in enumerate(rep.generators)
        ],
    }
    _write(args, _json_bytes(summary))
    return EXIT_OK


def _catalog_command(args):
    if not args.name:
        _write(args, ("\n".join(CATALOG_NAMES) + "\n").encode())
        return EXIT_OK
    try:
        doc = catalog(args.name)
    except KeyError as exc:
        raise CliError(EXIT_INPUT, str(exc))
    _write(args, doc.to_bytes())
    return EXIT_OK


def build_parser():
    parser = _Parser(prog="properaffine",
                     description="opposite-sign and contraction diagnostics for "
                                 "affine isometry groups of R^(n+1,n)")
    subs = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (
        ("check", "validate a representation document"),
        ("spectrum", "Margulis invariant spectrum over a word ball"),
        ("proximality", "(r,eps) certificates and the correcting-set search"),
        ("scorecard", "full consistency scorecard"),
    ):
        sub = subs.add_parser(name, help=help_text)
        _add_common(sub)

    cat = subs.add_parser("catalog", help="list or emit built-in representations")
    cat.add_argument("name", nargs="?", help="catalog entry name")
    cat.add_argument("--out", help="output path (default: stdout)")
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "catalog":
            return _catalog_command(args)
        if args.command == "check":
            return _check_command(args)
        # spectrum, proximality and scorecard all emit views of one report
        return _report_command(args)
    except CliError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return exc.code
    except GeometryError as exc:
        print("error: numerical failure: %s" % exc, file=sys.stderr)
        return EXIT_PARAMS


if __name__ == "__main__":
    sys.exit(main())
