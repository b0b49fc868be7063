import collections
import inspect
import sys

import numpy as np
import pytest
import scipy.linalg

from properaffine import core, group, margulis, proximal, repcatalog


@pytest.fixture(scope="module")
def space1():
    return core.standard_form(1)


@pytest.fixture(scope="module")
def space2():
    return core.standard_form(2)


def rotation_n1(theta):
    p = np.array([[1 / np.sqrt(2), 0, 1 / np.sqrt(2)],
                  [0, 1, 0],
                  [1 / np.sqrt(2), 0, -1 / np.sqrt(2)]])
    r = np.array([[np.cos(theta), -np.sin(theta), 0],
                  [np.sin(theta), np.cos(theta), 0],
                  [0, 0, 1]])
    return p @ r @ p.T


class TestSpectralSplit:
    def test_diagonal_boost(self, space1):
        split = proximal.spectral_split(space1, np.diag([2.0, 1.0, 0.5]))
        assert core.spans_equal(split.attracting.columns, np.eye(3)[:, :1])
        assert core.spans_equal(split.repelling.columns, np.eye(3)[:, 2:3])
        assert split.gap == pytest.approx(np.log(2.0), abs=1e-12)
        assert np.allclose(split.eigenvalue_moduli, [2.0, 1.0, 0.5])
        # neutral sign fixed by the orientation convention
        assert np.allclose(split.neutral, [0.0, -1.0, 0.0], atol=1e-12)

    def test_elliptic_rejected(self, space1):
        with pytest.raises(proximal.NotProximalError):
            proximal.spectral_split(space1, rotation_n1(0.9))

    def test_identity_rejected(self, space1):
        with pytest.raises(proximal.NotProximalError):
            proximal.spectral_split(space1, np.eye(3))

    def test_diagonal_n2(self, space2):
        a = np.diag([3.0, 2.0, 1.0, 1 / 3.0, 0.5])
        split = proximal.spectral_split(space2, a)
        assert core.spans_equal(split.attracting.columns, np.eye(5)[:, :2])
        assert core.spans_equal(split.repelling.columns, np.eye(5)[:, 3:])
        assert split.gap == pytest.approx(np.log(2.0), abs=1e-12)

    def test_near_tie_rejected(self, space2):
        a = np.diag([3.0, 1.0 + 1e-12, 1.0, 1.0 / (1.0 + 1e-12), 1 / 3.0])
        with pytest.raises(proximal.NotProximalError):
            proximal.spectral_split(space2, a)

    @pytest.mark.parametrize("n", [1, 2])
    def test_conjugation_equivariance(self, n):
        space = core.standard_form(n)
        a = np.diag([3.0, 1.0, 1 / 3.0]) if n == 1 else \
            np.diag([3.0, 2.0, 1.0, 1 / 3.0, 0.5])
        base = proximal.spectral_split(space, a)
        rng = np.random.default_rng(2)
        for _ in range(25):
            h = core.random_so_element(space, rng)
            conj = proximal.spectral_split(space, h @ a @ np.linalg.inv(h))
            assert core.largest_principal_angle(
                conj.attracting.columns, h @ base.attracting.columns) < 1e-8
            assert core.largest_principal_angle(
                conj.repelling.columns, h @ base.repelling.columns) < 1e-8
            assert np.allclose(conj.neutral, h @ base.neutral, atol=1e-8)
            assert conj.gap == pytest.approx(base.gap, rel=1e-10)

    def test_neutral_is_fixed_vector(self, space1):
        a = rotation_n1(0.4) @ np.diag([5.0, 1.0, 0.2]) @ rotation_n1(-0.4)
        split = proximal.spectral_split(space1, a)
        assert np.allclose(a @ split.neutral, split.neutral, atol=1e-10)
        assert split.neutral @ space1.form @ split.neutral == pytest.approx(1.0)

    def test_neutral_b_orthogonal_to_split(self, space2):
        rep = repcatalog.catalog_rep("block_n2")
        a = rep.generators[1].linear
        split = proximal.spectral_split(space2, a)
        for cols in (split.attracting.columns, split.repelling.columns):
            assert np.abs(cols.T @ space2.form @ split.neutral).max() < 1e-10

    def test_inverse_swaps_subspaces(self, space1):
        a = rotation_n1(0.3) @ np.diag([4.0, 1.0, 0.25]) @ rotation_n1(-0.3)
        fwd = proximal.spectral_split(space1, a)
        bwd = proximal.spectral_split(space1, np.linalg.inv(a))
        assert core.largest_principal_angle(
            fwd.attracting.columns, bwd.repelling.columns) < 1e-9
        assert core.largest_principal_angle(
            fwd.repelling.columns, bwd.attracting.columns) < 1e-9

    def test_gap_of_powers(self, space1):
        a = rotation_n1(0.2) @ np.diag([3.0, 1.0, 1 / 3.0]) @ rotation_n1(-0.2)
        base = proximal.spectral_split(space1, a).gap
        ak = np.eye(3)
        for k in range(1, 6):
            ak = ak @ a
            gap_k = proximal.spectral_split(space1, ak).gap
            assert gap_k == pytest.approx(k * base, rel=1e-6)

    def test_large_norm_power(self):
        # ||a^8||_2 = 2^32: the isotropy tolerance scales with the norm, the
        # frames' rank tolerance must not
        rep = repcatalog.catalog_rep("margulis_positive_n1")
        a = rep.generators[0].linear
        split = proximal.spectral_split(rep.space, np.linalg.matrix_power(a, 8),
                                        tol=rep.tol)
        base = proximal.spectral_split(rep.space, a, tol=rep.tol)
        assert split.gap == pytest.approx(8 * base.gap, rel=1e-12)
        assert core.spans_equal(split.attracting, base.attracting)
        assert core.spans_equal(split.repelling, base.repelling)

    def test_gap_is_not_compared_with_the_norm_threshold(self):
        # a^9: gap 24.95 is far below tol*(1+||A||) = 68.7, a threshold on the
        # linear scale of the moduli; the count test alone decides proximality
        rep = repcatalog.catalog_rep("margulis_positive_n1")
        a9 = np.linalg.matrix_power(rep.generators[0].linear, 9)
        split = proximal.spectral_split(rep.space, a9, tol=rep.tol)
        assert split.gap == float(np.log(split.eigenvalue_moduli[0]))
        assert split.gap < rep.tol * (1.0 + np.linalg.norm(a9, 2))
        base = proximal.spectral_split(rep.space, rep.generators[0].linear,
                                       tol=rep.tol)
        assert split.gap == pytest.approx(9 * base.gap, rel=1e-12)

    @pytest.mark.parametrize("n", [1, 2])
    def test_linalg_calls_per_split(self, monkeypatch, n):
        # eigvals, ||A||_2, two ordered Schurs and the pairing SVD; one
        # stacked QR of both Schur frames, one stacked orientation det; the
        # neutral vector's null_space and its orientation det
        space, g = conjugated_boost(n, 0)
        proximal.spectral_split(space, g)  # fills any per-n cache first
        calls = count_linalg_calls(monkeypatch)
        proximal.spectral_split(space, g)
        assert len(calls) == 9, collections.Counter(calls)


class TestNeutralVector:
    def test_frozen_standard_pair(self, space1):
        e = np.eye(3)
        v = proximal.neutral_vector(space1, e[:, :1], e[:, 2:3])
        assert np.allclose(v, [0.0, -1.0, 0.0], atol=1e-14)

    @pytest.mark.parametrize("n,expected_swap_sign", [(1, -1), (2, 1), (3, -1)])
    def test_swap_sign_regression(self, n, expected_swap_sign):
        # oracle: swapping the frame blocks permutes the orientation
        # determinant by (-1)^n, so the returned vector flips exactly then
        space = core.standard_form(n)
        basis = np.eye(space.dim)
        for seed in range(5):
            g = core.random_so_element(space, seed)
            vp, vm = g @ basis[:, :n], g @ basis[:, n + 1:]
            a = proximal.neutral_vector(space, vp, vm)
            b = proximal.neutral_vector(space, vm, vp)
            assert np.allclose(b, expected_swap_sign * a, atol=1e-10)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_equivariance(self, n):
        space = core.standard_form(n)
        basis = np.eye(space.dim)
        base = proximal.neutral_vector(space, basis[:, :n], basis[:, n + 1:])
        for t in range(60):
            g = core.random_so_element(space, 900 + t)
            lhs = proximal.neutral_vector(space, g @ basis[:, :n],
                                          g @ basis[:, n + 1:])
            assert np.allclose(lhs, g @ base, atol=1e-9)

    def test_frame_order_invariance(self, space2):
        # the neutral vector depends on the subspaces, not the frame bases
        basis = np.eye(5)
        base = proximal.neutral_vector(space2, basis[:, :2], basis[:, 3:])
        rng = np.random.default_rng(0)
        for _ in range(10):
            c1 = rng.normal(size=(2, 2))
            c2 = rng.normal(size=(2, 2))
            if abs(np.linalg.det(c1)) < 0.1 or abs(np.linalg.det(c2)) < 0.1:
                continue
            got = proximal.neutral_vector(space2, basis[:, :2] @ c1,
                                          basis[:, 3:] @ c2)
            assert np.allclose(got, base, atol=1e-10)

    def test_rejects_non_transverse(self, space1):
        e = np.eye(3)
        with pytest.raises(proximal.TransversalityError):
            proximal.neutral_vector(space1, e[:, :1], e[:, :1])


class TestTransverse:
    def test_standard_pair(self, space2):
        basis = np.eye(5)
        f1 = basis[:, :3]          # span(e1, e2, mid): type (2, 1, 0)
        f2 = basis[:, 2:]          # span(mid, e4, e5)
        check = proximal.transverse(space2, f1, f2)
        assert check.transverse
        assert check.margin > 0.5
        assert core.spans_equal(check.degenerate_1, basis[:, :2])
        assert core.spans_equal(check.degenerate_2, basis[:, 3:])

    def test_equal_pair_fails(self, space2):
        f = np.eye(5)[:, :3]
        check = proximal.transverse(space2, f, f)
        assert not check.transverse
        assert check.margin < 1e-12

    def test_rejects_wrong_signature(self, space2):
        with pytest.raises(core.FrameError):
            proximal.transverse(space2, np.eye(5)[:, :2], np.eye(5)[:, 2:])

    def test_margin_statistics_under_group(self, space1):
        basis = np.eye(3)
        f1, f2 = basis[:, :2], basis[:, 1:]
        base = proximal.transverse(space1, f1, f2).margin
        ratios = []
        for seed in range(50):
            g = core.random_so_element(space1, seed)
            got = proximal.transverse(space1, g @ f1, g @ f2).margin
            ratios.append(got / base)
        ratios = np.array(ratios)
        assert ratios.min() > 0.01 and ratios.max() < 100.0

    def test_affine_flag_pair_validation(self, space2):
        basis = np.eye(5)
        pair = proximal.AffineFlagPair(space2, np.zeros(5), np.ones(5),
                                       basis[:, :3], basis[:, 2:])
        assert pair.lin1.shape == (5, 3)
        with pytest.raises(proximal.TransversalityError):
            proximal.AffineFlagPair(space2, np.zeros(5), np.ones(5),
                                    basis[:, :3], basis[:, :3])


def grassmann_distance(l1, l2):
    """The metric on maximal isotropics: the largest principal angle."""
    return core.largest_principal_angle(core.as_columns(l1), core.as_columns(l2))


class TestGrassmannDistance:
    def test_identity_of_indiscernibles(self, space1):
        frame = core.random_isotropic_frame(space1, 5)
        assert grassmann_distance(frame, frame) < 1e-12

    def test_orthogonal_lines(self, space1):
        assert grassmann_distance(np.eye(3)[:, :1], np.eye(3)[:, 2:3]) \
            == pytest.approx(np.pi / 2)

    @pytest.mark.parametrize("n", [1, 2])
    def test_triangle_inequality(self, n):
        space = core.standard_form(n)
        for t in range(0, 3000, 3):
            a = core.random_isotropic_frame(space, t)
            b = core.random_isotropic_frame(space, t + 1)
            c = core.random_isotropic_frame(space, t + 2)
            dab = grassmann_distance(a, b)
            dbc = grassmann_distance(b, c)
            dac = grassmann_distance(a, c)
            assert dac <= dab + dbc + 1e-9

    def test_symmetry(self, space2):
        a = core.random_isotropic_frame(space2, 11)
        b = core.random_isotropic_frame(space2, 12)
        assert grassmann_distance(a, b) == \
            pytest.approx(grassmann_distance(b, a), abs=1e-12)


class TestCertificates:
    # dense-sweep critical eps values: 0.409492 / 0.184502 / 0.076618
    FROZEN_EPS = {4.0: 0.415, 16.0: 0.19, 64.0: 0.079}

    @pytest.mark.parametrize("lam", [4.0, 16.0, 64.0])
    def test_frozen_certificates_pass(self, space1, lam):
        cert = proximal.is_r_eps_proximal(space1, np.diag([lam, 1.0, 1.0 / lam]),
                                          r=1.0, eps=self.FROZEN_EPS[lam],
                                          samples=2000, seed=2024)
        assert cert.passed
        assert cert.separation == pytest.approx(1.0, abs=1e-12)
        assert cert.margin_attract > 0

    def test_below_critical_eps_fails(self, space1):
        # well under the dense-sweep threshold the containment must break
        cert = proximal.is_r_eps_proximal(space1, np.diag([16.0, 1.0, 1 / 16.0]),
                                          r=1.0, eps=0.12, samples=2000, seed=2024)
        assert not cert.passed
        assert cert.margin_attract < 0

    def test_identity_not_proximal(self, space1):
        with pytest.raises(proximal.NotProximalError):
            proximal.is_r_eps_proximal(space1, np.eye(3), 1.0, 0.2, 10, 0)

    def test_monotone_in_eps(self, space1):
        g = np.diag([16.0, 1.0, 1 / 16.0])
        base = proximal.is_r_eps_proximal(space1, g, 1.0, 0.19, 2000, 7)
        wider = proximal.is_r_eps_proximal(space1, g, 1.0, 0.30, 2000, 7)
        assert base.passed and wider.passed

    def test_parameter_validation(self, space1):
        g = np.diag([4.0, 1.0, 0.25])
        with pytest.raises(proximal.ParameterError):
            proximal.is_r_eps_proximal(space1, g, r=1.0, eps=0.6, samples=10, seed=0)
        with pytest.raises(proximal.ParameterError):
            proximal.is_r_eps_proximal(space1, g, r=1.0, eps=0.2, samples=0, seed=0)

    def test_certificate_deterministic(self, space1):
        g = np.diag([16.0, 1.0, 1 / 16.0])
        a = proximal.is_r_eps_proximal(space1, g, 1.0, 0.19, 500, 99)
        b = proximal.is_r_eps_proximal(space1, g, 1.0, 0.19, 500, 99)
        assert a.margin_attract == b.margin_attract
        assert a.admissible == b.admissible

    def test_insufficient_samples(self, space1):
        # single sample close to the repelling point gets filtered away
        g = np.diag([16.0, 1.0, 1 / 16.0])
        hit = None
        for seed in range(300):
            try:
                proximal.is_r_eps_proximal(space1, g, 1.0, 0.49, 1, seed)
            except proximal.InsufficientSamplesError:
                hit = seed
                break
        assert hit is not None

    def test_general_n_branch(self, space2):
        a = np.diag([3.0, 2.0, 1.0, 1 / 3.0, 0.5])
        cert = proximal.is_r_eps_proximal(space2, a, r=0.5, eps=0.2,
                                          samples=60, seed=3)
        assert cert.separation == pytest.approx(1.0, abs=1e-12)
        assert cert.admissible > 0


def reference_certificate(space, g, eps, bank, zm, zp):
    """Per-sample (admissible, margin) loop, as the certificate defines them.

    zp and zm are the split's orthonormal Schur frames and the bank frames
    are orthonormal, so none of them is re-orthonormalized: a frame is
    admissible when its J-pairing with zm has smallest singular value >= eps,
    and its distance is the largest hybrid principal angle between
    orthonormalize_oriented(g @ frame) and zp.
    """
    admissible = 0
    margin = np.inf
    for frame in bank:
        pairing = np.linalg.svd(frame.T @ space.form @ zm, compute_uv=False)
        if pairing[-1] < eps:
            continue
        admissible += 1
        q = core.orthonormalize_oriented(g @ frame)
        if space.n == 1:
            # the n = 1 branch's own formula: arccos of |cos|
            d = np.arccos(np.clip(abs(float(zp[:, 0] @ q[:, 0])), 0.0, 1.0))
        else:
            c = q.T @ zp
            cosv = np.clip(np.linalg.svd(c, compute_uv=False), 0.0, 1.0)
            sinv = np.linalg.svd(zp - q @ c, compute_uv=False)
            sinv = np.clip(np.sort(sinv), 0.0, 1.0)
            d = np.where(cosv ** 2 >= 0.5, np.arcsin(sinv), np.arccos(cosv)).max()
        margin = min(margin, eps - d)
    return admissible, float(margin)


def conjugated_boost(n, seed):
    """(space, h diag(3^n, ..., 3, 1, 1/3, ..., 3^-n) h^-1), h random in SO0."""
    space = core.standard_form(n)
    moduli = [3.0 ** (n - i) for i in range(n)]
    d = np.diag(moduli + [1.0] + [1.0 / m for m in reversed(moduli)])
    h = core.random_so_element(space, np.random.default_rng(40 + seed))
    return space, h @ d @ np.linalg.inv(h)


def count_linalg_calls(monkeypatch):
    """List that records every numpy.linalg / scipy.linalg call the package makes."""
    calls = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            caller = sys._getframe(1).f_globals.get("__name__", "")
            if caller.startswith("properaffine"):
                calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for module in (np.linalg, scipy.linalg):
        for name, fn in list(vars(module).items()):
            if (not name.startswith("_") and callable(fn)
                    and not inspect.isclass(fn)):
                monkeypatch.setattr(module, name, counting(name, fn))
    return calls


class TestBatchedCertificate:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_per_sample_loop(self, n, seed):
        space, g = conjugated_boost(n, seed)
        bank = proximal.sample_isotropic_bank(space, seed, 300)
        split = proximal.spectral_split(space, g)
        zp = split.attracting.columns
        zm = split.repelling.columns
        for r, eps in ((0.45, 0.21), (0.2, 0.05), (0.7, 0.3)):
            cert = proximal.is_r_eps_proximal(space, g, r, eps, 300, seed)
            admissible, margin = reference_certificate(space, g, eps, bank, zm, zp)
            assert cert.admissible == admissible
            if n == 1:
                # the n = 1 branch normalizes all admissible images in one
                # matrix product and one norm call, which round differently
                # from one QR per sample: the margin agrees to a few ulps
                assert cert.margin_attract == pytest.approx(margin, rel=0, abs=1e-15)
            else:
                assert cert.margin_attract == margin
            # the separation is the split's own transversality value
            pairing = np.linalg.svd(zp.T @ space.form @ zm, compute_uv=False)
            assert cert.separation == float(pairing[-1])
            assert cert.passed == (cert.separation >= r and margin > 0.0)
            # V+ and V- without orientation: the split's Schur columns, bitwise
            for got, want in ((cert.attracting, split.attracting),
                              (cert.repelling, split.repelling)):
                assert isinstance(got, core.SubspaceFrame)
                assert np.array_equal(got.columns, want.columns)

    @pytest.mark.parametrize("n, expected", [(1, 6), (2, 9)])
    def test_linalg_calls_per_certificate(self, monkeypatch, n, expected):
        # split: eigvals, ||A||_2, two ordered Schurs, one pairing SVD; then
        # n = 1: one column norm; n >= 2: the bank pairing SVD, one stacked
        # QR of the images and the two SVDs of the hybrid angle
        space, g = conjugated_boost(n, 0)
        bank = proximal.sample_isotropic_bank(space, 0, 300)
        calls = count_linalg_calls(monkeypatch)
        proximal.is_r_eps_proximal(space, g, 0.45, 0.21, 300, 0, _bank=bank)
        assert len(calls) == expected, collections.Counter(calls)

    def test_insufficient_samples_n2(self, space2):
        g = np.diag([3.0, 2.0, 1.0, 1 / 3.0, 0.5])
        split = proximal.spectral_split(space2, g)
        xm = split.repelling.columns
        hit = None
        for seed in range(300):
            # bank frames and Schur columns are orthonormal: the distance to
            # nt(x-) is the smallest singular value of their J-pairing
            bank = proximal.sample_isotropic_bank(space2, seed, 2)
            pairing = np.linalg.svd(np.swapaxes(bank, 1, 2) @ space2.form @ xm,
                                    compute_uv=False)
            if np.all(pairing[:, -1] < 0.9):
                hit = seed
                break
        assert hit is not None
        with pytest.raises(proximal.InsufficientSamplesError):
            proximal.is_r_eps_proximal(space2, g, 2.0, 0.9, 2, hit)


class TestSampleBank:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_sample_depends_on_seed_and_index_only(self, n):
        space = core.standard_form(n)
        bank = proximal.sample_isotropic_bank(space, 17, 40)
        assert bank.shape == (40, space.dim, n)
        for i in (0, 1, 23, 39):
            g = core.random_so_element(space, np.random.default_rng((17, i)))
            assert np.array_equal(bank[i], core.orthonormalize_oriented(g[:, :n]))

    def test_small_bank_is_prefix(self, space2):
        small = proximal.sample_isotropic_bank(space2, 5, 50)
        large = proximal.sample_isotropic_bank(space2, 5, 200)
        assert np.array_equal(small, large[:50])


@pytest.fixture(scope="module")
def schottky():
    return repcatalog.catalog_rep("margulis_positive_n1")


class TestAmsCover:
    def test_ball2_uses_only_empty_word(self, schottky):
        cover = proximal.ams_cover(schottky, r=0.4, eps=0.19, ball_length=2,
                                   search_length=1, samples=800, seed=11)
        assert cover.failures == ()
        assert cover.correcting_set == (group.EMPTY_WORD,)
        assert len(cover.assignment) == 16

    def test_ball4_cover_is_complete(self, schottky):
        cover = proximal.ams_cover(schottky, r=0.4, eps=0.19, ball_length=4,
                                   search_length=1, samples=800, seed=11)
        assert cover.failures == ()
        assert group.EMPTY_WORD in cover.correcting_set
        # conjugate-shaped words genuinely need nonempty correctors
        assert len(cover.correcting_set) > 1
        aba_inv = group.ReducedWord((1, 2, -1))
        assert len(cover.assignment[aba_inv]) > 0

    def test_unreachable_radius_fails_everything(self, schottky):
        cover = proximal.ams_cover(schottky, r=3.0, eps=0.19, ball_length=1,
                                   search_length=1, samples=200, seed=5)
        assert len(cover.failures) == 4
        assert cover.correcting_set == ()

    def test_search_growth_keeps_assignments(self, schottky):
        small = proximal.ams_cover(schottky, r=0.4, eps=0.19, ball_length=2,
                                   search_length=1, samples=400, seed=2)
        large = proximal.ams_cover(schottky, r=0.4, eps=0.19, ball_length=2,
                                   search_length=2, samples=400, seed=2)
        assert small.assignment == large.assignment
        assert len(large.correcting_set) <= len(small.correcting_set)


def reference_cover(rep, r, eps, ball_length, search_length, samples, seed,
                    tried=None):
    """The per-word cover search the stacked rounds replace.

    Each ball word tries the candidates in order, with one certificate on the
    product's own split each; tried, if given, receives every product word
    that was certified.  Returns (assignment, correcting_set, failures).
    """
    space = rep.space
    candidates = [(group.EMPTY_WORD, group.identity_isometry(space))]
    candidates += group.ball_elements(rep, search_length)
    bank = proximal.sample_isotropic_bank(space, seed, samples)
    assignment, used, failures = {}, [], []
    for w, gw in group.ball_elements(rep, ball_length):
        hit = None
        for s, gs in candidates:
            if tried is not None:
                tried.append(group.concat(s, w))
            try:
                cert = proximal.is_r_eps_proximal(space, gs.linear @ gw.linear, r,
                                                  eps, samples, seed, tol=rep.tol,
                                                  _bank=bank)
            except (proximal.NotProximalError, proximal.TransversalityError,
                    proximal.InsufficientSamplesError):
                continue
            if cert.passed:
                hit = s
                break
        if hit is None:
            failures.append(w)
        else:
            assignment[w] = hit
            if hit not in used:
                used.append(hit)
    return assignment, tuple(used), tuple(failures)


def conjugated_rep(name, scale):
    """A catalog entry conjugated by the non-orthogonal h = random_so_element(space, 5, scale)."""
    rep = repcatalog.catalog_rep(name)
    h = core.random_so_element(rep.space, 5, scale=scale)
    h_inv = np.linalg.inv(h)
    return group.FreeGroupRep(space=rep.space, generators=tuple(
        group.AffineIsometry(rep.space, h @ g.linear @ h_inv, h @ g.translation)
        for g in rep.generators))


N1_CATALOGS = ("margulis_positive_n1", "mixed_sign_n1", "linear_only")
# (representation, ball, search, seed); n = 2 runs at 300 samples to stay quick
COVER_CASES = (
    [(name, ball, 1, 0) for name in N1_CATALOGS + ("block_n2",)
     for ball in (1, 2, 3, 4)]
    + [("margulis_positive_n1", 4, 2, 7), ("block_n2", 2, 2, 7),
       ("mixed_sign_n1", 3, 1, 7), ("block_n2", 3, 1, 7)]
    + [(("margulis_positive_n1", scale), 3, 1, seed)
       for scale in (0.1, 0.3) for seed in (0, 7)]
    + [(("block_n2", scale), 2, 1, seed) for scale in (0.1, 0.3) for seed in (0, 7)]
)


class TestStackedCover:
    """The rounds on transported frames decide exactly as the per-word search."""

    @pytest.mark.parametrize("name, ball, search, seed", COVER_CASES,
                             ids=lambda v: "%s@%g" % v if isinstance(v, tuple) else None)
    def test_matches_per_word_search(self, name, ball, search, seed):
        rep = (conjugated_rep(*name) if isinstance(name, tuple)
               else repcatalog.catalog_rep(name))
        samples = 2000 if rep.space.n == 1 else 300
        cover = proximal.ams_cover(rep, 0.45, 0.21, ball, search, samples, seed,
                                   tol=rep.tol)
        assignment, correcting_set, failures = reference_cover(
            rep, 0.45, 0.21, ball, search, samples, seed)
        assert cover.assignment == assignment
        assert cover.correcting_set == correcting_set
        assert cover.failures == failures

    def split_calls(self, monkeypatch):
        calls = []
        real = proximal._split_frames

        def counting(*args):
            calls.append(args)
            return real(*args)
        monkeypatch.setattr(proximal, "_split_frames", counting)
        return calls

    def test_one_split_per_class(self, monkeypatch, schottky):
        tried = []
        expected = reference_cover(schottky, 0.45, 0.21, 4, 2, 600, 3, tried=tried)
        classes = {group.conjugacy_key(w)[0] for w in tried if len(w)}
        calls = self.split_calls(monkeypatch)
        cover = proximal.ams_cover(schottky, 0.45, 0.21, 4, 2, 600, 3)
        assert len(calls) == len(classes)
        # seeded by the spectrum, the cover splits only the classes it lacks
        frames = {}
        margulis.spectrum(schottky, 4, _frames=frames)
        seeded = {group.conjugacy_key(group.ReducedWord(c))[0] for c in frames}
        del calls[:]
        seeded_cover = proximal.ams_cover(schottky, 0.45, 0.21, 4, 2, 600, 3,
                                          _frames=frames)
        assert len(calls) == len(classes - seeded) > 0
        for got in (cover, seeded_cover):
            assert (got.assignment, got.correcting_set, got.failures) == expected


def mp_separation(rep, letters, digits=50):
    """|b(v+, v-)| / (|v+| |v-|) of the eigenvectors of the word, to `digits` digits (n = 1)."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(digits):
        m = mpmath.eye(rep.space.dim)
        for letter in letters:
            m = m * mpmath.matrix(rep.letter_image(letter).linear.tolist())
        values, vectors = mpmath.eig(m)
        order = sorted(range(len(values)), key=lambda i: abs(values[i]))
        vm, vp = vectors[:, order[0]], vectors[:, order[-1]]
        j = mpmath.matrix(rep.space.form.tolist())
        return float(abs((vp.T * j * vm)[0]) / (mpmath.norm(vp) * mpmath.norm(vm)))


class TestTransportedSeparation:
    # b (b b a^-1 b^-1 b^-1) = b b (a b^-1)^-1 b^-1 b^-1: its separation is
    # about 2e-5, and a split of the product matrix is 3.9e-5 relative off;
    # a a a a a b^-1 is its class's split member
    @pytest.mark.parametrize("corrector, word", [((2,), (2, 2, -1, -2, -2)),
                                                 ((), (1, 1, 1, 1, 1, -2))])
    def test_against_50_digit_eigenvectors(self, schottky, corrector, word):
        gs = group.evaluate_word(schottky, group.ReducedWord(corrector)).linear
        gw = group.evaluate_word(schottky, group.ReducedWord(word)).linear
        letters = group.reduce_letters(corrector + word).letters
        table = proximal._ClassFrames(schottky, schottky.tol)
        live, _, separation = table.transported([letters], (gs @ gw)[None])
        assert live.tolist() == [0]
        exact = mp_separation(schottky, letters)
        assert separation[0] == pytest.approx(exact, rel=1e-10, abs=0)
