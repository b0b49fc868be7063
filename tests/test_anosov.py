import numpy as np
import pytest

from properaffine import anosov, core, group, margulis, proximal, repcatalog


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
