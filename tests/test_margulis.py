import numpy as np
import pytest

from properaffine import core, group, margulis, proximal, repcatalog


@pytest.fixture(scope="module")
def space1():
    return core.standard_form(1)


@pytest.fixture(scope="module")
def boost_g(space1):
    return group.affine_isometry(space1, np.diag([2.0, 1.0, 0.5]), [0.0, 3.0, 0.0])


class TestInvariant:
    def test_frozen_boost_value(self, space1, boost_g):
        # neutral of the standard boost is -e2, so alpha = b((0,3,0), -e2) = -3
        assert margulis.margulis_invariant(space1, boost_g) == pytest.approx(-3.0, abs=1e-14)

    def test_basepoint_independence(self, space1, boost_g):
        split = proximal.spectral_split(space1, boost_g.linear)
        ref = margulis.margulis_invariant(space1, boost_g)
        for x in (np.zeros(3), np.eye(3)[0], 7 * np.eye(3)[2]):
            displaced = (boost_g.apply(x) - x) @ space1.form @ split.neutral
            assert displaced == pytest.approx(ref, abs=1e-12)

    def test_translation_conjugation(self, space1, boost_g):
        ref = margulis.margulis_invariant(space1, boost_g)
        for w in ([1.0, 0.0, 0.0], [0.3, -2.0, 5.0]):
            t = group.AffineIsometry(space1, np.eye(3), np.array(w))
            conj = group.compose(group.compose(t, boost_g), group.inverse(t))
            assert margulis.margulis_invariant(space1, conj) == \
                pytest.approx(ref, abs=1e-12)

    def test_affine_conjugation_invariance(self, space1, boost_g):
        ref = margulis.margulis_invariant(space1, boost_g)
        rng = np.random.default_rng(20)
        for _ in range(100):
            h = group.AffineIsometry(space1, core.random_so_element(space1, rng),
                                     rng.normal(size=3))
            conj = group.compose(group.compose(h, boost_g), group.inverse(h))
            got = margulis.margulis_invariant(space1, conj)
            assert got == pytest.approx(ref, rel=1e-8)

    def test_not_proximal_raises(self, space1):
        g = group.AffineIsometry(space1, np.eye(3), np.ones(3))
        with pytest.raises(proximal.NotProximalError):
            margulis.margulis_invariant(space1, g)


class TestLengthProxy:
    def test_boost(self, space1):
        assert margulis.translation_length_proxy(space1, np.diag([2.0, 1.0, 0.5])) \
            == pytest.approx(np.log(2.0))

    def test_power_doubling(self, space1):
        a = np.diag([2.0, 1.0, 0.5])
        assert margulis.translation_length_proxy(space1, a @ a) == \
            pytest.approx(2 * np.log(2.0))

    def test_conjugation_invariant(self, space1):
        a = np.diag([3.0, 1.0, 1 / 3.0])
        base = margulis.translation_length_proxy(space1, a)
        for seed in range(10):
            h = core.random_so_element(space1, seed)
            assert margulis.translation_length_proxy(space1, h @ a @ np.linalg.inv(h)) \
                == pytest.approx(base, rel=1e-9)

    def test_requires_proximal(self, space1):
        with pytest.raises(proximal.NotProximalError):
            margulis.translation_length_proxy(space1, np.eye(3))


class TestPowerAdditivity:
    def test_boost_exact(self, space1, boost_g):
        assert margulis.power_additivity_check(space1, boost_g, 5) < 1e-9

    def test_catalog_elements(self):
        for name in repcatalog.CATALOG_NAMES:
            rep = repcatalog.catalog_rep(name)
            for g in rep.generators:
                if not np.any(g.translation):
                    continue
                assert margulis.power_additivity_check(rep.space, g, 4) < 1e-8

    def test_zero_alpha_guard(self, space1):
        g = group.affine_isometry(space1, np.diag([2.0, 1.0, 0.5]), [5.0, 0.0, 0.0])
        with pytest.raises(margulis.ZeroInvariantError):
            margulis.power_additivity_check(space1, g, 3)

    def test_kmax_validation(self, space1, boost_g):
        with pytest.raises(ValueError):
            margulis.power_additivity_check(space1, boost_g, 1)


class TestInverseProbe:
    # regression values derived by brute force over the orientation
    # convention: the ratio is (-1)^(n+1)
    def test_n1(self, space1, boost_g):
        assert margulis.inverse_symmetry_probe(space1, boost_g) == \
            pytest.approx(1.0, abs=1e-10)

    def test_n2(self):
        space = core.standard_form(2)
        g = group.affine_isometry(space, np.diag([3.0, 2.0, 1.0, 1 / 3.0, 0.5]),
                                  np.eye(5)[2])
        assert margulis.inverse_symmetry_probe(space, g) == \
            pytest.approx(-1.0, abs=1e-10)

    def test_n3(self):
        space = core.standard_form(3)
        g = group.affine_isometry(
            space, np.diag([5.0, 3.0, 2.0, 1.0, 0.2, 1 / 3.0, 0.5]), np.eye(7)[3])
        assert margulis.inverse_symmetry_probe(space, g) == \
            pytest.approx(1.0, abs=1e-10)

    def test_constant_under_conjugation(self, space1, boost_g):
        base = margulis.inverse_symmetry_probe(space1, boost_g)
        rng = np.random.default_rng(4)
        for _ in range(20):
            h = group.AffineIsometry(space1, core.random_so_element(space1, rng),
                                     rng.normal(size=3))
            conj = group.compose(group.compose(h, boost_g), group.inverse(h))
            assert margulis.inverse_symmetry_probe(space1, conj) == \
                pytest.approx(base, rel=1e-8)


class TestSpectrum:
    def test_zero_translations_degenerate(self):
        rep = repcatalog.catalog_rep("linear_only")
        report = margulis.spectrum(rep, 3)
        assert report.verdict.kind == "degenerate"
        assert report.verdict.witnesses[0] == group.ReducedWord((1,))
        assert all(e.sign == "0" for e in report.entries)

    def test_positive_catalog_ball4(self):
        rep = repcatalog.catalog_rep("margulis_positive_n1")
        report = margulis.spectrum(rep, 4)
        assert report.verdict.kind == "uniform_positive"
        assert report.skipped == ()
        assert len(report.entries) == 160

    def test_mixed_catalog(self):
        rep = repcatalog.catalog_rep("mixed_sign_n1")
        report = margulis.spectrum(rep, 2)
        assert report.verdict.kind == "mixed"
        pos, neg = report.verdict.witnesses
        assert len(pos) == 1 and len(neg) == 1

    def test_normalized_consistency(self):
        rep = repcatalog.catalog_rep("margulis_positive_n1")
        report = margulis.spectrum(rep, 3)
        for e in report.entries:
            assert e.normalized * e.length_proxy == pytest.approx(e.alpha, rel=1e-12)
            if e.sign != "0":
                assert np.sign(e.normalized) == np.sign(e.alpha)
            assert e.length_proxy > 0

    def test_uniform_negative(self):
        # negate all translations of the positive rep
        rep = repcatalog.catalog_rep("margulis_positive_n1")
        flipped = group.FreeGroupRep(
            space=rep.space,
            generators=tuple(group.AffineIsometry(rep.space, g.linear, -g.translation)
                             for g in rep.generators))
        report = margulis.spectrum(flipped, 2)
        assert report.verdict.kind == "uniform_negative"

    def test_verdict_invariant_under_conjugation(self):
        rep = repcatalog.catalog_rep("mixed_sign_n1")
        h = group.AffineIsometry(rep.space, core.random_so_element(rep.space, 31),
                                 np.array([0.4, -1.0, 2.2]))
        conjugated = group.FreeGroupRep(
            space=rep.space,
            generators=tuple(group.compose(group.compose(h, g), group.inverse(h))
                             for g in rep.generators))
        a = margulis.spectrum(rep, 3)
        b = margulis.spectrum(conjugated, 3)
        assert a.verdict.kind == b.verdict.kind

    def test_report_carries_proxy_note(self):
        rep = repcatalog.catalog_rep("linear_only")
        report = margulis.spectrum(rep, 1)
        assert "eigenvalue" in report.length_proxy_note


def _core_rotations(word):
    """All rotations of the cyclic core of word."""
    letters = word.letters
    while len(letters) > 1 and letters[0] == -letters[-1]:
        letters = letters[1:-1]
    return frozenset(letters[i:] + letters[:i] for i in range(len(letters)))


class TestClassValues:
    @pytest.mark.parametrize("name", ["margulis_positive_n1", "block_n2"])
    def test_entries_carry_their_class_values(self, name):
        rep = repcatalog.catalog_rep(name)
        report = margulis.spectrum(rep, 5)
        parity = (-1.0) ** (rep.space.n + 1)
        first = {}
        for e in report.entries:
            fwd = _core_rotations(e.word)
            cls = fwd | _core_rotations(e.word.inverse())
            if cls not in first:
                # the first member is cyclically reduced and split as itself
                assert e.word.letters in fwd
                g = group.evaluate_word(rep, e.word)
                assert e.alpha == margulis.margulis_invariant(rep.space, g,
                                                              tol=rep.tol)
                first[cls] = (e, fwd)
                continue
            ref, ref_fwd = first[cls]
            factor = 1.0 if fwd == ref_fwd else parity
            assert e.alpha == factor * ref.alpha
            assert (e.gap, e.length_proxy) == (ref.gap, ref.length_proxy)
        skipped = {_core_rotations(w) | _core_rotations(w.inverse())
                   for w in report.skipped}
        assert not skipped & first.keys()
        # conjugacy classes up to inversion with a cyclic core of length <= 5
        assert len(first) + len(skipped) == 51

    def test_deep_conjugate_of_a_generator(self):
        rep = repcatalog.catalog_rep("margulis_positive_n1")
        word = group.ReducedWord((2, -1, -1, 2, 1, 1, -2))   # b a⁻¹ a⁻¹ b a a b⁻¹
        entry = next(e for e in margulis.spectrum(rep, 7).entries if e.word == word)
        assert entry.alpha == margulis.margulis_invariant(
            rep.space, rep.generators[1], tol=rep.tol)
