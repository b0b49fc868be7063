import numpy as np
import pytest

from properaffine import anosov, core, group, margulis, proximal, repcatalog
from test_proximal import count_linalg_calls


@pytest.fixture(scope="module")
def space1():
    return core.standard_form(1)


@pytest.fixture(scope="module")
def schottky():
    return repcatalog.catalog_rep("margulis_positive_n1")


class TestLimitMapSamples:
    def test_powers_share_frames(self, schottky):
        samples, skipped = anosov.limit_map_samples(schottky, 3)
        assert skipped == []
        by_word = {s.word: s for s in samples}
        a1 = by_word[group.ReducedWord((1,))]
        for k in (2, 3):
            ak = by_word[group.ReducedWord((1,) * k)]
            assert core.largest_principal_angle(
                a1.attracting.columns, ak.attracting.columns) < 1e-9
            assert core.largest_principal_angle(
                a1.repelling.columns, ak.repelling.columns) < 1e-9

    def test_conjugation_equivariance(self, schottky):
        samples, _ = anosov.limit_map_samples(schottky, 3)
        by_word = {s.word: s for s in samples}
        g_b = by_word[group.ReducedWord((2,))]
        g_conj = by_word[group.ReducedWord((1, 2, -1))]
        a_lin = schottky.generators[0].linear
        assert core.largest_principal_angle(
            g_conj.attracting.columns, a_lin @ g_b.attracting.columns) < 1e-8

    def test_all_gaps_positive(self, schottky):
        samples, skipped = anosov.limit_map_samples(schottky, 4)
        assert skipped == []
        assert len(samples) == 160
        assert min(s.gap for s in samples) > 0

    def test_elliptic_words_recorded(self, space1):
        theta = 0.8
        p = np.array([[1 / np.sqrt(2), 0, 1 / np.sqrt(2)],
                      [0, 1, 0],
                      [1 / np.sqrt(2), 0, -1 / np.sqrt(2)]])
        rot = p @ np.array([[np.cos(theta), -np.sin(theta), 0],
                            [np.sin(theta), np.cos(theta), 0],
                            [0, 0, 1]]) @ p.T
        rep = group.FreeGroupRep(space=space1, generators=(
            group.affine_isometry(space1, rot),
            group.affine_isometry(space1, np.diag([4.0, 1.0, 0.25]))))
        samples, skipped = anosov.limit_map_samples(rep, 1)
        assert group.ReducedWord((1,)) in skipped
        assert any(s.word == group.ReducedWord((2,)) for s in samples)


class TestTransversalityMatrix:
    def test_standard_schottky_margin(self, schottky):
        samples, _ = anosov.limit_map_samples(schottky, 1)
        tmat = anosov.transversality_matrix(schottky.space, samples)
        # length-1 frames sit at circle positions 0, pi, pi/2, 3pi/2; the
        # closest pairs pair to 1/2, frozen as the regression value
        assert tmat.min_margin == pytest.approx(0.5, abs=1e-9)
        assert tmat.excluded_pairs == 0

    def test_powers_only_give_empty_matrix(self, schottky):
        samples, _ = anosov.limit_map_samples(schottky, 1)
        a = [s for s in samples if s.word == group.ReducedWord((1,))][0]
        ga = group.evaluate_word(schottky, group.ReducedWord((1,))).linear
        split2 = proximal.spectral_split(schottky.space, ga @ ga)
        power_sample = anosov.LimitSample(word=group.ReducedWord((1, 1)),
                                          attracting=split2.attracting,
                                          repelling=split2.repelling,
                                          gap=split2.gap)
        tmat = anosov.transversality_matrix(schottky.space, [a, power_sample])
        assert tmat.excluded_pairs == 1
        assert np.isnan(tmat.min_margin)
        assert np.all(np.isnan(tmat.margins))

    def test_matrix_symmetry(self, schottky):
        samples, _ = anosov.limit_map_samples(schottky, 2)
        tmat = anosov.transversality_matrix(schottky.space, samples)
        m = tmat.margins
        mask = ~np.isnan(m)
        assert np.array_equal(mask, mask.T)
        assert np.allclose(m[mask], m.T[mask])

    def test_needs_two_samples(self, schottky):
        samples, _ = anosov.limit_map_samples(schottky, 1)
        with pytest.raises(ValueError):
            anosov.transversality_matrix(schottky.space, samples[:1])


class TestContractionTrace:
    def test_diagonal_exact(self, space1):
        trace = anosov.contraction_trace(space1, np.diag([2.0, 1.0, 0.5]), kmax=20)
        assert trace.slope_plus == pytest.approx(np.log(2.0), abs=1e-12)
        assert trace.slope_minus == pytest.approx(-np.log(2.0), abs=1e-12)
        assert trace.residual_plus < 1e-12
        assert trace.residual_minus < 1e-12

    def test_rotated_conjugate_matches(self, space1):
        theta = 0.6
        p = np.array([[1 / np.sqrt(2), 0, 1 / np.sqrt(2)],
                      [0, 1, 0],
                      [1 / np.sqrt(2), 0, -1 / np.sqrt(2)]])
        rot = p @ np.array([[np.cos(theta), -np.sin(theta), 0],
                            [np.sin(theta), np.cos(theta), 0],
                            [0, 0, 1]]) @ p.T
        a = np.diag([3.0, 1.0, 1 / 3.0])
        base = anosov.contraction_trace(space1, a, kmax=12)
        conj = anosov.contraction_trace(space1, rot @ a @ rot.T, kmax=12)
        assert conj.slope_plus == pytest.approx(base.slope_plus, abs=1e-10)
        assert conj.slope_minus == pytest.approx(base.slope_minus, abs=1e-10)

    def test_catalog_elements_match_gap(self):
        for name in ("margulis_positive_n1", "block_n2"):
            rep = repcatalog.catalog_rep(name)
            for g in rep.generators:
                trace = anosov.contraction_trace(rep.space, g.linear, kmax=20)
                assert abs(trace.slope_plus - trace.gap) < 1e-6
                assert abs(trace.slope_minus + trace.gap) < 1e-6
                assert trace.residual_plus < 1e-6
                assert trace.residual_minus < 1e-6

    def test_kmax_validation(self, space1):
        with pytest.raises(ValueError):
            anosov.contraction_trace(space1, np.diag([2.0, 1.0, 0.5]), kmax=2)

    def test_not_proximal(self, space1):
        with pytest.raises(proximal.NotProximalError):
            anosov.contraction_trace(space1, np.eye(3), kmax=5)


class TestSplittingAt:
    def test_standard_pair(self):
        space = core.standard_form(2)
        basis = np.eye(5)
        vplus = core.isotropic_frame(space, basis[:, :2])
        vminus = core.isotropic_frame(space, basis[:, 3:])
        split = anosov.splitting_at(space, vplus, vminus)
        assert core.spans_equal(split.neutral_line, basis[:, 2:3])
        assert split.v_plus.shape == (5, 2)
        assert split.neutral_line.shape == (5, 1)
        assert split.v_minus.shape == (5, 2)
        assert split.min_singular_value > 0.5
        assert np.isfinite(split.condition_number)
        nu = split.neutral_line[:, 0]
        assert nu @ space.form @ nu > 0

    def test_dimensions_sum(self):
        space = core.standard_form(3)
        g = core.random_so_element(space, 5)
        basis = np.eye(7)
        vplus = core.isotropic_frame(space, g @ basis[:, :3])
        vminus = core.isotropic_frame(space, g @ basis[:, 4:])
        split = anosov.splitting_at(space, vplus, vminus)
        assembled = np.hstack([split.v_plus, split.neutral_line, split.v_minus])
        assert assembled.shape == (7, 7)
        assert np.linalg.matrix_rank(assembled) == 7

    def test_equivariance(self):
        space = core.standard_form(1)
        basis = np.eye(3)
        base = anosov.splitting_at(space,
                                   core.isotropic_frame(space, basis[:, :1]),
                                   core.isotropic_frame(space, basis[:, 2:3]))
        for seed in range(10):
            g = core.random_so_element(space, seed)
            moved = anosov.splitting_at(
                space,
                core.isotropic_frame(space, g @ basis[:, :1]),
                core.isotropic_frame(space, g @ basis[:, 2:3]))
            assert core.spans_equal(moved.v_plus, g @ base.v_plus)
            assert core.spans_equal(moved.neutral_line, g @ base.neutral_line)
            assert core.spans_equal(moved.v_minus, g @ base.v_minus)

    def test_non_transverse_pair(self):
        space = core.standard_form(1)
        frame = core.isotropic_frame(space, np.eye(3)[:, :1])
        with pytest.raises(proximal.TransversalityError):
            anosov.splitting_at(space, frame, frame)


class TestScorecard:
    def test_positive_catalog_consistent(self, schottky):
        card = anosov.affine_anosov_scorecard(schottky, ball_length=3,
                                              r=0.4, eps=0.19, samples=400,
                                              seed=6, label="positive")
        assert card.verdict.kind == "consistent_affine_anosov"
        assert card.spectrum_verdict.kind == "uniform_positive"
        assert card.min_transversality_margin > 1e-6
        assert card.max_residual < 1e-6
        assert card.cover_failures == ()

    def test_reads_the_ball_spectrum(self, schottky):
        card = anosov.affine_anosov_scorecard(schottky, ball_length=3,
                                              r=0.4, eps=0.19, samples=300,
                                              seed=6)
        spec = margulis.spectrum(schottky, 3)
        assert card.spectrum.entries == spec.entries
        assert card.skipped_words == spec.skipped
        assert card.min_gap == min(e.gap for e in spec.entries)
        # per-word splits of the whole ball agree to rounding: the spectrum
        # splits one member per conjugacy class, they split every word
        samples, _ = anosov.limit_map_samples(schottky, 3)
        assert card.min_gap == pytest.approx(min(s.gap for s in samples),
                                             rel=1e-12)

    def test_mixed_catalog_inconsistent(self):
        rep = repcatalog.catalog_rep("mixed_sign_n1")
        card = anosov.affine_anosov_scorecard(rep, ball_length=2, r=0.4,
                                              eps=0.19, samples=300, seed=6)
        assert card.verdict.kind == "inconsistent"
        assert any("mixed signs" in reason for reason in card.verdict.reasons)

    def test_elliptic_generator_insufficient(self, space1):
        theta = 1.1
        p = np.array([[1 / np.sqrt(2), 0, 1 / np.sqrt(2)],
                      [0, 1, 0],
                      [1 / np.sqrt(2), 0, -1 / np.sqrt(2)]])
        rot = p @ np.array([[np.cos(theta), -np.sin(theta), 0],
                            [np.sin(theta), np.cos(theta), 0],
                            [0, 0, 1]]) @ p.T
        rep = group.FreeGroupRep(space=space1, generators=(
            group.affine_isometry(space1, rot, [0.0, 1.0, 0.0]),
            group.affine_isometry(space1, np.diag([4.0, 1.0, 0.25]), [0.0, 1.0, 0.0])))
        card = anosov.affine_anosov_scorecard(rep, ball_length=1, r=0.4,
                                              eps=0.19, samples=200, seed=6)
        assert card.verdict.kind == "insufficient_evidence"
        assert any("non-proximal generator" in r for r in card.verdict.reasons)

    def test_degenerate_catalog_inconsistent(self):
        rep = repcatalog.catalog_rep("linear_only")
        card = anosov.affine_anosov_scorecard(rep, ball_length=1, r=0.4,
                                              eps=0.19, samples=200, seed=6)
        assert card.verdict.kind == "inconsistent"
        assert any("degenerate" in r for r in card.verdict.reasons)

    def test_deterministic(self, schottky):
        kwargs = dict(ball_length=2, r=0.4, eps=0.19, samples=300, seed=42)
        a = anosov.affine_anosov_scorecard(schottky, **kwargs)
        b = anosov.affine_anosov_scorecard(schottky, **kwargs)
        assert a.min_transversality_margin == b.min_transversality_margin
        assert a.verdict == b.verdict

    def test_conjugated_rep_same_verdict(self, schottky):
        h = group.AffineIsometry(schottky.space,
                                 core.random_so_element(schottky.space, 13),
                                 np.array([1.0, 2.0, -0.5]))
        conjugated = group.FreeGroupRep(
            space=schottky.space,
            generators=tuple(group.compose(group.compose(h, g), group.inverse(h))
                             for g in schottky.generators))
        a = anosov.affine_anosov_scorecard(schottky, ball_length=2, r=0.05,
                                           eps=0.02, samples=300, seed=3)
        b = anosov.affine_anosov_scorecard(conjugated, ball_length=2, r=0.05,
                                           eps=0.02, samples=300, seed=3)
        assert a.spectrum_verdict.kind == b.spectrum_verdict.kind


def reference_transversality(space, samples, same_point_tol=1e-6):
    """(margins, min_margin, excluded_pairs) from a loop over the pairs."""
    qs = [core.orthonormalize_oriented(s.attracting.columns) for s in samples]
    m = len(samples)
    margins = np.full((m, m), np.nan)
    excluded = 0
    best = np.inf
    for i in range(m):
        for j in range(i + 1, m):
            same_att = core.largest_principal_angle(
                samples[i].attracting.columns, samples[j].attracting.columns
            ) < same_point_tol
            same_rep = core.largest_principal_angle(
                samples[i].repelling.columns, samples[j].repelling.columns
            ) < same_point_tol
            if same_att and same_rep:
                excluded += 1
                continue
            sv = np.linalg.svd(qs[i].T @ space.form @ qs[j], compute_uv=False)
            margins[i, j] = margins[j, i] = float(sv[-1])
            best = min(best, float(sv[-1]))
    return margins, float(best) if best < np.inf else np.nan, excluded


def reference_trace(space, a, kmax, tol=core.DEFAULT_TOL):
    """ContractionTrace fields from one pair of SVDs per power."""
    split = proximal.spectral_split(space, a, tol=tol)
    qp = core.orthonormalize_oriented(split.attracting.columns)
    qm = core.orthonormalize_oriented(split.repelling.columns)
    ks = np.arange(1, kmax + 1)
    log_plus = np.empty(kmax)
    log_minus = np.empty(kmax)
    rp = qp.T @ a @ qp
    rm = qm.T @ a @ qm
    rpk = np.eye(space.n)
    rmk = np.eye(space.n)
    for i, _ in enumerate(ks):
        rpk = rpk @ rp
        rmk = rmk @ rm
        log_plus[i] = np.log(np.linalg.svd(rpk, compute_uv=False)[-1])
        log_minus[i] = np.log(np.linalg.svd(rmk, compute_uv=False)[0])
    fit_p = np.polyfit(ks, log_plus, 1)
    fit_m = np.polyfit(ks, log_minus, 1)
    return {"k_values": ks.astype(float), "log_sv_plus": log_plus,
            "log_sv_minus": log_minus, "slope_plus": float(fit_p[0]),
            "slope_minus": float(fit_m[0]),
            "residual_plus": float(np.abs(np.polyval(fit_p, ks) - log_plus).max()),
            "residual_minus": float(np.abs(np.polyval(fit_m, ks) - log_minus).max()),
            "gap": split.gap}


def assert_trace_equal(trace, expected):
    for name, value in expected.items():
        got = getattr(trace, name)
        if isinstance(value, np.ndarray):
            assert got.shape == value.shape and np.array_equal(got, value), name
        else:
            assert got == value, name


def assert_transversality_equal(tmat, expected):
    margins, min_margin, excluded = expected
    assert np.array_equal(tmat.margins, margins, equal_nan=True)
    assert np.array_equal(tmat.min_margin, min_margin, equal_nan=True)
    assert tmat.excluded_pairs == excluded


def conjugate_samples(n):
    """Splits of non-normal conjugates h D h^-1 and of some squares, at n."""
    space = core.standard_form(n)
    moduli = [2.0 ** (n - i + 1) for i in range(n)]
    d = np.diag(moduli + [1.0] + [1.0 / m for m in reversed(moduli)])
    elements, samples = [], []
    for seed in range(12):
        h = core.random_so_element(space, 100 * n + seed, scale=0.3)
        g = h @ d @ np.linalg.inv(h)
        powers = (g, g @ g) if seed % 4 == 0 else (g,)
        for k, gk in enumerate(powers, start=1):
            split = proximal.spectral_split(space, gk)
            elements.append(gk)
            samples.append(anosov.LimitSample(word=(seed, k),
                                              attracting=split.attracting,
                                              repelling=split.repelling,
                                              gap=split.gap))
    return space, elements, samples


CATALOG_NAMES = ("margulis_positive_n1", "block_n2", "mixed_sign_n1")


class TestStackedDiagnostics:
    """The stacked calls equal the per-pair and per-power loops bitwise."""

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    @pytest.mark.parametrize("ball", [1, 2, 3])
    def test_catalog_transversality(self, name, ball):
        rep = repcatalog.catalog_rep(name)
        samples, _ = anosov.limit_map_samples(rep, ball)
        tmat = anosov.transversality_matrix(rep.space, samples)
        assert_transversality_equal(tmat, reference_transversality(rep.space, samples))

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    @pytest.mark.parametrize("ball", [1, 2, 3])
    def test_catalog_traces(self, name, ball):
        rep = repcatalog.catalog_rep(name)
        for w, g in group.ball_elements(rep, ball):
            if len(w.letters) < ball:
                continue
            try:
                expected = reference_trace(rep.space, g.linear, 20, rep.tol)
            except proximal.NotProximalError:
                continue
            trace = anosov.contraction_trace(rep.space, g.linear, kmax=20,
                                             tol=rep.tol)
            assert_trace_equal(trace, expected)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_conjugate_transversality(self, n):
        space, _, samples = conjugate_samples(n)
        excluded = 0
        for m in (2, 4, 7, len(samples)):
            tmat = anosov.transversality_matrix(space, samples[:m])
            assert_transversality_equal(tmat, reference_transversality(space,
                                                                       samples[:m]))
            excluded = max(excluded, tmat.excluded_pairs)
        assert excluded > 0   # the squares share their roots' points

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_conjugate_traces(self, n):
        space, elements, _ = conjugate_samples(n)
        for g in elements:
            for kmax in (3, 20):
                assert_trace_equal(anosov.contraction_trace(space, g, kmax=kmax),
                                   reference_trace(space, g, kmax))

    def test_linalg_calls_per_trace(self, monkeypatch):
        space, elements, _ = conjugate_samples(2)
        proximal.spectral_split(space, elements[0])   # warm the frame caches
        calls = count_linalg_calls(monkeypatch)
        anosov.contraction_trace(space, elements[0], kmax=20)
        assert len(calls) <= 11, calls   # the split's 9, one qr, one svd

    @pytest.mark.parametrize("name, ball", [("margulis_positive_n1", 1),
                                            ("margulis_positive_n1", 2),
                                            ("block_n2", 2)])
    def test_linalg_calls_per_matrix(self, monkeypatch, name, ball):
        rep = repcatalog.catalog_rep(name)
        samples, _ = anosov.limit_map_samples(rep, ball)
        calls = count_linalg_calls(monkeypatch)
        anosov.transversality_matrix(rep.space, samples)
        assert len(calls) <= 4, calls   # one qr, the angles' two svds, one svd

    def test_scorecard_traces_read_the_samples_splits(self, monkeypatch, schottky):
        splits = []
        split = anosov.spectral_split

        def counting(*args, **kwargs):
            splits.append(args)
            return split(*args, **kwargs)
        monkeypatch.setattr(anosov, "spectral_split", counting)
        monkeypatch.setattr(anosov, "contraction_trace", None)
        card = anosov.affine_anosov_scorecard(schottky, ball_length=2, r=0.4,
                                              eps=0.19, samples=200, seed=6)
        # limit_map_samples splits each generator word once; contraction
        # does not split again
        assert len(splits) == 2 * schottky.rank
        assert card.max_residual < 1e-6
