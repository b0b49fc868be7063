import dataclasses
import inspect
import json

import numpy as np
import pytest

from properaffine import anosov, cli, core, group, margulis, proximal, repcatalog, reports
from properaffine.cli import main


@pytest.fixture(scope="module")
def positive_doc():
    return repcatalog.catalog("margulis_positive_n1")


@pytest.fixture(scope="module")
def small_params():
    return reports.ReportParameters(ball_length=2, r=0.4, eps=0.19,
                                    samples=300, seed=5)


class TestDocuments:
    def test_catalog_roundtrip_preserves_numbers(self, positive_doc):
        rep = reports.parse_rep(positive_doc.to_bytes())
        doc2 = reports.rep_to_document(rep, label=positive_doc.label)
        assert doc2.to_bytes() == positive_doc.to_bytes()

    def test_parse_minimal_document(self):
        doc = {
            "schema_version": "1", "n": 1, "rank": 2, "label": "minimal",
            "generators": [
                {"linear": [2.0, 0, 0, 0, 1, 0, 0, 0, 0.5],
                 "translation": [0, 0, 0]},
                {"linear": [4.0, 0, 0, 0, 1, 0, 0, 0, 0.25],
                 "translation": [0, 1, 0]},
            ],
        }
        rep = reports.parse_rep(json.dumps(doc))
        assert rep.rank == 2
        assert rep.space.n == 1

    def test_membership_error_names_generator(self):
        doc = {
            "schema_version": "1", "n": 1, "rank": 2,
            "generators": [
                {"linear": [2.0, 0, 0, 0, 1, 0, 0, 0, 0.5],
                 "translation": [0, 0, 0]},
                {"linear": [1.0, 0, 0, 0, -1.0, 0, 0, 0, 1.0],  # det -1
                 "translation": [0, 0, 0]},
            ],
        }
        with pytest.raises(group.MembershipError, match="generator 2"):
            reports.parse_rep(json.dumps(doc))

    def test_dimension_error(self):
        doc = {
            "schema_version": "1", "n": 1, "rank": 2,
            "generators": [
                {"linear": [1.0] * 8, "translation": [0, 0, 0]},
                {"linear": [1.0] * 9, "translation": [0, 0, 0]},
            ],
        }
        with pytest.raises(reports.DocumentError, match="generator 1.*8 entries"):
            reports.parse_rep(json.dumps(doc))

    def test_malformed_json(self):
        with pytest.raises(reports.DocumentError, match="JSON"):
            reports.parse_rep(b"{not json")

    def test_missing_field(self):
        with pytest.raises(reports.DocumentError, match="missing field"):
            reports.parse_rep(json.dumps({"schema_version": "1", "n": 1}))

    def test_float_roundtrip_precision(self):
        # shortest round-trip decimals survive document -> rep -> document
        rep = repcatalog.catalog_rep("block_n2")
        doc = reports.rep_to_document(rep)
        rep2 = reports.parse_rep(doc.to_bytes())
        for g1, g2 in zip(rep.generators, rep2.generators):
            assert np.array_equal(g1.linear, g2.linear)
            assert np.array_equal(g1.translation, g2.translation)


class TestCatalogDocuments:
    def test_positive_signs(self):
        rep = repcatalog.catalog_rep("margulis_positive_n1")
        alphas = [margulis.margulis_invariant(rep.space, g) for g in rep.generators]
        assert all(a > 0 for a in alphas)

    def test_mixed_signs(self):
        rep = repcatalog.catalog_rep("mixed_sign_n1")
        alphas = [margulis.margulis_invariant(rep.space, g) for g in rep.generators]
        assert alphas[0] > 0 > alphas[1]

    def test_linear_only_zero(self):
        rep = repcatalog.catalog_rep("linear_only")
        for g in rep.generators:
            assert margulis.margulis_invariant(rep.space, g) == pytest.approx(0.0, abs=1e-14)

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            repcatalog.catalog("unobtainium")

    def test_labels(self, positive_doc):
        assert positive_doc.label == "margulis_positive_n1"
        assert positive_doc.schema_version == "1"


class TestRunReport:
    def test_end_to_end_positive(self, positive_doc, small_params):
        rep = reports.parse_rep(positive_doc.to_bytes())
        report = reports.run_report(rep, small_params, label="positive")
        assert report.spectrum["verdict"] == "uniform_positive"
        assert report.scorecard["verdict"] == "consistent_affine_anosov"
        assert report.proximality["cover"]["failures"] == []
        assert "eigenvalue" in report.length_proxy_note
        assert report.input_digest == positive_doc.digest()

    def test_csv_accounting(self, positive_doc, small_params):
        rep = reports.parse_rep(positive_doc.to_bytes())
        report = reports.run_report(rep, small_params, include=("spectrum",))
        csv = reports.emit(report, "csv").decode()
        lines = csv.strip().split("\n")
        assert lines[0] == "word,alpha,length_proxy,normalized,sign,gap"
        ball = len(group.word_ball(rep.rank, small_params.ball_length))
        skipped = len(report.spectrum["skipped"])
        assert len(lines) - 1 == ball - skipped

    def test_svg_single_color_for_uniform(self, positive_doc, small_params):
        rep = reports.parse_rep(positive_doc.to_bytes())
        report = reports.run_report(rep, small_params, include=("spectrum",))
        svg = reports.emit(report, "svg").decode()
        assert svg.startswith("<svg")
        assert reports.SIGN_COLORS["+"] in svg
        assert reports.SIGN_COLORS["-"] not in svg
        assert reports.SIGN_COLORS["0"] not in svg

    def test_svg_two_colors_for_mixed(self, small_params):
        rep = repcatalog.catalog_rep("mixed_sign_n1")
        report = reports.run_report(rep, small_params, include=("spectrum",))
        svg = reports.emit(report, "svg").decode()
        assert reports.SIGN_COLORS["+"] in svg
        assert reports.SIGN_COLORS["-"] in svg

    def test_deterministic_bytes(self, positive_doc, small_params):
        rep = reports.parse_rep(positive_doc.to_bytes())
        r1 = reports.run_report(rep, small_params, label="x")
        r2 = reports.run_report(rep, small_params, label="x")
        assert reports.emit(r1, "csv") == reports.emit(r2, "csv")
        assert reports.emit(r1, "svg") == reports.emit(r2, "svg")
        d1, d2 = r1.to_dict(), r2.to_dict()
        d1.pop("timing")
        d2.pop("timing")
        assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)

    def test_parameter_validation(self, positive_doc):
        rep = reports.parse_rep(positive_doc.to_bytes())
        bad = reports.ReportParameters(r=0.4, eps=0.3)
        with pytest.raises(Exception, match="eps"):
            reports.run_report(rep, bad)


class TestSharedWork:
    """Each report builds one sample bank, one spectrum and one cover."""

    @pytest.fixture()
    def calls(self, monkeypatch):
        """Bound arguments of every call, wherever the function is imported."""
        sources = {"sample_isotropic_bank": proximal, "ams_cover": proximal,
                   "spectrum": margulis, "limit_map_samples": anosov}
        calls = {name: [] for name in sources}

        def recording(name, fn):
            signature = inspect.signature(fn)

            def wrapper(*args, **kwargs):
                calls[name].append(signature.bind(*args, **kwargs).arguments)
                return fn(*args, **kwargs)
            return wrapper

        for name, source in sources.items():
            wrapped = recording(name, getattr(source, name))
            for module in (proximal, margulis, anosov, reports):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, wrapped)
        return calls

    @pytest.mark.parametrize("include, expected", [
        (reports.ALL_BLOCKS, 1),
        (("proximality",), 1),
        (("spectrum",), 0),
        (("scorecard",), 1),
    ])
    def test_calls_per_report(self, calls, positive_doc, small_params,
                              include, expected):
        rep = reports.build_rep(positive_doc)
        report = reports.run_report(rep, small_params, include=include)
        counts = {name: len(args) for name, args in calls.items()}
        # one spectrum per spectrum block: the scorecard computes it, and the
        # block reads the scorecard's instead of computing its own
        has_spectrum = report.spectrum is not None
        has_scorecard = report.scorecard is not None
        assert counts == {"sample_isotropic_bank": expected, "ams_cover": expected,
                          "spectrum": int(has_spectrum),
                          "limit_map_samples": int(has_scorecard)}
        assert has_spectrum == (include != ("proximality",))
        # the scorecard samples frames at generator level only
        assert all(args["ball_length"] == 1 for args in calls["limit_map_samples"])
        # the scorecard's spectrum is timed inside scorecard_s
        assert ("spectrum_s" in report.timing) == (include == ("spectrum",))

    @pytest.mark.parametrize("ball, include, classes", [
        (3, reports.ALL_BLOCKS, 12),
        (5, ("spectrum",), 51),
    ])
    def test_one_split_per_class(self, monkeypatch, positive_doc, small_params,
                                 ball, include, classes):
        splits = []

        def counting(*args, **kwargs):
            splits.append(args)
            return proximal.spectral_split(*args, **kwargs)
        monkeypatch.setattr(margulis, "spectral_split", counting)
        rep = reports.build_rep(positive_doc)
        params = dataclasses.replace(small_params, ball_length=ball)
        report = reports.run_report(rep, params, include=include)
        assert len(report.spectrum["entries"]) == len(group.word_ball(2, ball))
        assert len(splits) == classes

    def test_certificates_split_without_neutral_vector(self, monkeypatch,
                                                       positive_doc, small_params):
        # every report split computes one neutral vector; certificates need
        # V+ and V- only, so they call neither
        depth = [0]
        calls = {"spectral_split": [], "neutral_vector": [], "certificates": 0}

        def certifying(fn):
            def wrapper(*args, **kwargs):
                calls["certificates"] += 1
                depth[0] += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    depth[0] -= 1
            return wrapper

        def recording(name, fn):
            def wrapper(*args, **kwargs):
                calls[name].append(depth[0])
                return fn(*args, **kwargs)
            return wrapper

        wrapped = {"is_r_eps_proximal": certifying(proximal.is_r_eps_proximal)}
        for name in ("spectral_split", "neutral_vector"):
            wrapped[name] = recording(name, getattr(proximal, name))
        for name, fn in wrapped.items():
            for module in (proximal, margulis, anosov, reports):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, fn)
        rep = reports.build_rep(positive_doc)
        reports.run_report(rep, small_params)
        assert calls["certificates"] > 0
        assert len(calls["spectral_split"]) > 0
        assert len(calls["neutral_vector"]) == len(calls["spectral_split"])
        assert set(calls["spectral_split"]) == set(calls["neutral_vector"]) == {0}

    @pytest.mark.parametrize("name, expected", [
        ("block_n2", 1),
        ("margulis_positive_n1", 0),
    ])
    def test_bank_reorthonormalized_once(self, monkeypatch, small_params,
                                         name, expected):
        # for n >= 2 the certificates share one re-orthonormalized bank
        banks = []
        stacked = []
        make_bank = proximal.sample_isotropic_bank
        orthonormalize_stack = proximal._orthonormalize_stack

        def sampling(*args, **kwargs):
            banks.append(make_bank(*args, **kwargs))
            return banks[-1]

        def orthonormalizing(frames):
            stacked.append(frames)
            return orthonormalize_stack(frames)

        monkeypatch.setattr(proximal, "sample_isotropic_bank", sampling)
        monkeypatch.setattr(reports, "sample_isotropic_bank", sampling)
        monkeypatch.setattr(proximal, "_orthonormalize_stack", orthonormalizing)
        rep = reports.build_rep(repcatalog.catalog(name))
        params = dataclasses.replace(small_params, ball_length=1)
        reports.run_report(rep, params)
        assert len(banks) == 1
        assert sum(frames is banks[0] for frames in stacked) == expected


class TestCli:
    def test_catalog_listing(self, capsys):
        assert main(["catalog"]) == 0
        out = capsys.readouterr().out
        for name in repcatalog.CATALOG_NAMES:
            assert name in out

    def test_catalog_emit_and_check(self, tmp_path):
        doc_path = tmp_path / "rep.json"
        assert main(["catalog", "margulis_positive_n1", "--out", str(doc_path)]) == 0
        assert main(["check", "--rep", str(doc_path), "--out",
                     str(tmp_path / "check.json")]) == 0
        summary = json.loads((tmp_path / "check.json").read_text())
        assert summary["valid"] is True
        assert summary["rank"] == 2

    def test_check_invalid_document_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "schema_version": "1", "n": 1, "rank": 2,
            "generators": [
                {"linear": [2.0, 0, 0, 0, 1, 0, 0, 0, 0.5], "translation": [0, 0, 0]},
                {"linear": [1.0, 0, 0, 0, -1.0, 0, 0, 0, 1.0], "translation": [0, 0, 0]},
            ]}))
        assert main(["check", "--rep", str(bad)]) == 2

    def test_missing_input_exit_2(self):
        assert main(["check", "--rep", "/no/such/file.json"]) == 2

    def test_bad_parameters_exit_3(self):
        assert main(["spectrum", "--catalog", "linear_only", "--eps", "0.5"]) == 3
        assert main(["spectrum", "--catalog", "linear_only", "--ball", "0"]) == 3

    def test_spectrum_ball_8(self, tmp_path):
        out = tmp_path / "spec8.json"
        rc = main(["spectrum", "--catalog", "margulis_positive_n1", "--ball", "8",
                   "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["spectrum"]["verdict"] == "uniform_positive"
        assert doc["spectrum"]["skipped"] == []

    def test_spectrum_ball_9(self, tmp_path):
        # deep cyclically reduced words such as a^9 are proximal although
        # their log gap is below tol*(1+||A||)
        out = tmp_path / "spec9.json"
        rc = main(["spectrum", "--catalog", "margulis_positive_n1", "--ball", "9",
                   "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["spectrum"]["verdict"] == "uniform_positive"
        assert doc["spectrum"]["skipped"] == []
        assert len(doc["spectrum"]["entries"]) == len(group.word_ball(2, 9))

    def test_numerical_failure_exit_3(self, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise core.FrameError("rank-deficient frame")
        monkeypatch.setattr(cli, "run_report", fail)
        assert main(["spectrum", "--catalog", "linear_only"]) == 3
        assert capsys.readouterr().err == \
            "error: numerical failure: rank-deficient frame\n"

    def test_rep_and_catalog_conflict_exit_3(self, tmp_path):
        doc_path = tmp_path / "rep.json"
        main(["catalog", "linear_only", "--out", str(doc_path)])
        assert main(["check", "--rep", str(doc_path),
                     "--catalog", "linear_only"]) == 3

    def test_spectrum_csv(self, tmp_path):
        out = tmp_path / "spec.csv"
        rc = main(["spectrum", "--catalog", "margulis_positive_n1", "--ball", "2",
                   "--format", "csv", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "word,alpha,length_proxy,normalized,sign,gap"
        assert len(lines) == 17

    def test_verdicts_are_not_exit_codes(self, tmp_path):
        out = tmp_path / "mixed.json"
        rc = main(["scorecard", "--catalog", "mixed_sign_n1", "--ball", "2",
                   "--samples", "200", "--format", "json", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["scorecard"]["verdict"] == "inconsistent"

    def test_proximality_command(self, tmp_path):
        out = tmp_path / "prox.json"
        rc = main(["proximality", "--catalog", "margulis_positive_n1", "--ball", "1",
                   "--samples", "200", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        certs = doc["proximality"]["generator_certificates"]
        assert len(certs) == 2
        assert all(c["passed"] for c in certs)
        assert doc["spectrum"] is None
