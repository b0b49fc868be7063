import numpy as np
import pytest
import scipy.linalg

from properaffine import core

# the shortcut's unconditional check, kept before any test patches it
CHECKED_ISOTROPIC = core._checked_isotropic


def expected_form(n):
    # independent construction straight from the index rule
    d = 2 * n + 1
    j = np.zeros((d, d))
    for i in range(n):
        j[i, n + 1 + i] = j[n + 1 + i, i] = 1.0
    j[n, n] = 1.0
    return j


class TestStandardForm:
    def test_n1_matrix(self):
        space = core.standard_form(1)
        assert np.array_equal(space.form, [[0, 0, 1], [0, 1, 0], [1, 0, 0]])

    def test_n2_positions(self):
        j = core.standard_form(2).form
        assert j[0, 3] == j[1, 4] == j[3, 0] == j[4, 1] == j[2, 2] == 1.0
        assert np.count_nonzero(j) == 5

    @pytest.mark.parametrize("n", range(1, 7))
    def test_involution_and_symmetry(self, n):
        j = core.standard_form(n).form
        assert np.array_equal(j, expected_form(n))
        assert np.array_equal(j, j.T)
        assert np.allclose(j @ j, np.eye(2 * n + 1))

    @pytest.mark.parametrize("n", range(1, 5))
    def test_signature_of_form(self, n):
        ev = np.linalg.eigvalsh(core.standard_form(n).form)
        assert np.sum(ev > 0) == n + 1
        assert np.sum(ev < 0) == n

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            core.standard_form(0)


class TestSignature:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_standard_isotropic(self, n):
        space = core.standard_form(n)
        basis = np.eye(space.dim)
        assert core.signature(space, basis[:, :n]) == (n, 0, 0)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_middle_vector(self, n):
        space = core.standard_form(n)
        assert core.signature(space, np.eye(space.dim)[:, n:n + 1]) == (0, 1, 0)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_degenerate_plus_positive(self, n):
        space = core.standard_form(n)
        cols = np.eye(space.dim)[:, : n + 1]
        assert core.signature(space, cols) == (n, 1, 0)

    def test_invariant_under_change_of_basis(self):
        space = core.standard_form(2)
        rng = np.random.default_rng(3)
        cols = rng.normal(size=(5, 3))
        base = core.signature(space, cols)
        for _ in range(20):
            change = rng.normal(size=(3, 3))
            while abs(np.linalg.det(change)) < 0.1:
                change = rng.normal(size=(3, 3))
            assert core.signature(space, cols @ change) == base

    def test_rejects_rank_deficient(self):
        space = core.standard_form(1)
        cols = np.column_stack([np.ones(3), 2 * np.ones(3)])
        with pytest.raises(core.FrameError):
            core.signature(space, core.SubspaceFrame(cols))


class TestComplement:
    def test_isotropic_inside_own_complement(self):
        space = core.standard_form(1)
        comp = core.b_orthogonal_complement(space, np.eye(3)[:, :1])
        assert comp.k == 2
        assert core.spans_equal(comp.columns, np.eye(3)[:, :2])

    def test_middle_vector_complement(self):
        space = core.standard_form(2)
        comp = core.b_orthogonal_complement(space, np.eye(5)[:, 2:3])
        assert core.spans_equal(comp.columns, np.eye(5)[:, [0, 1, 3, 4]])

    @pytest.mark.parametrize("seed", range(8))
    def test_involution(self, seed):
        space = core.standard_form(2)
        cols = np.random.default_rng(seed).normal(size=(5, 2))
        double = core.b_orthogonal_complement(
            space, core.b_orthogonal_complement(space, cols))
        assert core.spans_equal(double.columns, cols)

    def test_dimension(self):
        space = core.standard_form(3)
        cols = np.random.default_rng(1).normal(size=(7, 3))
        assert core.b_orthogonal_complement(space, cols).k == 4


class TestCanonicalOrientation:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_standard_frame_is_positive(self, n):
        space = core.standard_form(n)
        assert core.canonical_orientation(space, np.eye(space.dim)[:, :n]) == 1

    @pytest.mark.parametrize("n", [2, 3])
    def test_column_swap_flips_sign(self, n):
        space = core.standard_form(n)
        frame = np.eye(space.dim)[:, :n].copy()
        frame[:, [0, 1]] = frame[:, [1, 0]]
        assert core.canonical_orientation(space, frame) == -1

    def test_column_negation_flips_sign(self):
        space = core.standard_form(1)
        assert core.canonical_orientation(space, -np.eye(3)[:, :1]) == -1

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_independent_of_reference(self, n):
        space = core.standard_form(n)
        frame = core.random_isotropic_frame(space, 17 + n)
        signs = {
            core.canonical_orientation(
                space, frame.columns,
                core.random_positive_definite_subspace(space, 100 + k).columns)
            for k in range(100)
        }
        assert signs == {frame.orientation}

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_so0_preserves_orientation(self, n):
        space = core.standard_form(n)
        rng = np.random.default_rng(12)
        for t in range(40):
            frame = core.random_isotropic_frame(space, 500 + t)
            g = core.random_so_element(space, rng)
            assert core.canonical_orientation(space, g @ frame.columns) \
                == frame.orientation

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_closed_form_matches_reference_projection(self, n):
        # the sign of the coordinates of q in the reference negative frame,
        # along the reference positive frame, solved against [P | N]
        space = core.standard_form(n)
        basis = np.hstack([core.default_positive_frame(space).columns,
                           core.default_negative_frame(space).columns])
        rng = np.random.default_rng(30 + n)
        frames = []
        for _ in range(200):
            g = core.random_so_element(space, rng)
            change = rng.normal(size=(n, n))  # det < 0 reverses the orientation
            frames.append(g[:, :n] @ change)
        signs = [core.canonical_orientation(space, f) for f in frames]
        for frame, sign in zip(frames, signs):
            q = core.orthonormalize_oriented(frame)
            coords = np.linalg.solve(basis, q)[n + 1:]
            assert sign == (1 if np.linalg.det(coords) > 0 else -1)
        assert set(signs) == {-1, 1}
        stack = core.orthonormalize_oriented(np.stack(frames))
        assert core._orientation(space, stack).tolist() == signs

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_explicit_reference_matches_complement_projection(self, n):
        # the projection along P onto its b-orthogonal complement N, from the
        # coordinates of q in [P | N]
        space = core.standard_form(n)
        rng = np.random.default_rng(60 + n)
        signs = []
        for t in range(200):
            pos = core.random_positive_definite_subspace(space, 3000 + t).columns
            g = core.random_so_element(space, rng)
            frame = g[:, :n] @ rng.normal(size=(n, n))  # det < 0 reverses it
            q = core.orthonormalize_oriented(frame)
            neg = core.b_orthogonal_complement(space, pos).columns
            coords = np.linalg.solve(np.hstack([pos, neg]), q)[n + 1:]
            sign = core.canonical_orientation(space, frame, positive=pos)
            assert sign == int(core._orientation(space, neg @ coords))
            signs.append(sign)
        assert set(signs) == {-1, 1}

    @pytest.mark.parametrize("scale", [1e-6, 1e14])
    def test_explicit_reference_scale_free(self, scale):
        # the projection does not depend on the reference basis' scale
        space = core.standard_form(2)
        frame = core.random_isotropic_frame(space, 41)
        pos = core.random_positive_definite_subspace(space, 42).columns
        assert core.canonical_orientation(space, frame.columns,
                                          positive=scale * pos) == frame.orientation

    def test_rejects_non_isotropic(self):
        space = core.standard_form(1)
        with pytest.raises(core.FrameError):
            core.canonical_orientation(space, np.eye(3)[:, 1:2])

    def test_rejects_bad_reference(self):
        space = core.standard_form(1)
        with pytest.raises(core.FrameError):
            core.canonical_orientation(space, np.eye(3)[:, :1],
                                       positive=np.eye(3)[:, :2])


class TestSamplers:
    def test_positive_subspace_deterministic(self):
        space = core.standard_form(2)
        a = core.random_positive_definite_subspace(space, 9)
        b = core.random_positive_definite_subspace(space, 9)
        assert np.array_equal(a.columns, b.columns)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_positive_subspace_signature(self, seed):
        space = core.standard_form(2)
        frame = core.random_positive_definite_subspace(space, seed)
        assert core.signature(space, frame) == (0, 3, 0)

    def test_sampler_spread(self):
        # distinct seeds should essentially never give the same span
        space = core.standard_form(1)
        projectors = set()
        for seed in range(1000):
            q = core.orthonormalize_oriented(
                core.random_positive_definite_subspace(space, seed).columns)
            projectors.add(np.round(q @ q.T, 9).tobytes())
        assert len(projectors) == 1000

    def test_isotropic_sampler(self):
        space = core.standard_form(3)
        frame = core.random_isotropic_frame(space, 4)
        assert core.signature(space, frame.frame) == (3, 0, 0)
        assert frame.orientation in (-1, 1)


class TestFrames:
    def test_principal_angle_small_angle_accuracy(self):
        space = core.standard_form(2)
        cols = np.random.default_rng(0).normal(size=(5, 2))
        rot = core.random_so_element(space, 1)
        assert core.largest_principal_angle(cols, cols) < 1e-12
        assert core.largest_principal_angle(np.eye(3)[:, :1], np.eye(3)[:, 2:3]) \
            == pytest.approx(np.pi / 2)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            a, b, c = (rng.normal(size=(5, 2)) for _ in range(3))
            dab = core.largest_principal_angle(a, b)
            dbc = core.largest_principal_angle(b, c)
            dac = core.largest_principal_angle(a, c)
            assert dac <= dab + dbc + 1e-10

    def test_isotropic_frame_validation(self):
        space = core.standard_form(1)
        with pytest.raises(core.FrameError):
            core.isotropic_frame(space, np.eye(3)[:, 1:2])
        good = core.isotropic_frame(space, np.eye(3)[:, :1])
        assert good.orientation == 1

    def test_frames_immutable(self):
        space = core.standard_form(1)
        frame = core.random_isotropic_frame(space, 0)
        with pytest.raises(ValueError):
            frame.columns[0, 0] = 5.0


def frame_verdict(check, space, z, tol):
    """What a frame check returns or raises, comparable with ==."""
    try:
        frame = check(space, z, tol)
    except core.FrameError as exc:
        return "FrameError: %s" % exc
    return (type(frame), frame.columns.shape, frame.columns.tobytes(), frame.tol,
            frame.columns.flags.writeable)


class TestOrthonormalIsotropicCheck:
    """_checked_orthonormal_isotropic has exactly _checked_isotropic's verdicts."""

    @pytest.fixture()
    def fallbacks(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return CHECKED_ISOTROPIC(*args)
        monkeypatch.setattr(core, "_checked_isotropic", counting)
        return calls

    def same_verdict(self, space, z, tol):
        got = frame_verdict(core._checked_orthonormal_isotropic, space, z, tol)
        assert got == frame_verdict(CHECKED_ISOTROPIC, space, z, tol)
        return got

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_schur_frames(self, fallbacks, n):
        space = core.standard_form(n)
        passed = set()
        for seed in range(30):
            # a random proximal group element: a conjugated boost
            rng = np.random.default_rng(seed)
            t = np.sort(rng.uniform(0.2, 3.0, n))[::-1]
            d = np.diag(np.concatenate([np.exp(t), [1.0], np.exp(-t[::-1])]))
            h = core.random_so_element(space, rng, scale=1.0)
            g = h @ d @ np.linalg.inv(h)
            thresh = 1e-9 * (1.0 + np.linalg.norm(g, 2))
            # split the moduli between the n-th and (n+1)-th, and between the
            # (n+1)-th and (n+2)-th, as the spectral split does
            moduli = np.sort(np.abs(np.linalg.eigvals(g)))[::-1]
            hi = np.sqrt(moduli[n - 1] * moduli[n])
            lo = np.sqrt(moduli[n] * moduli[n + 1])
            for select in (lambda m: m >= hi, lambda m: m <= lo):
                def sort(re, im, select=select):
                    return select(np.hypot(re, im))
                z = scipy.linalg.schur(g, output="real", sort=sort)[1][:, :n]
                for tol in (thresh, 1e-17):
                    verdict = self.same_verdict(space, z, tol)
                    passed.add(isinstance(verdict, tuple))
        assert passed == {True, False}
        # Schur columns are orthonormal: no frame needed the SVD checks
        assert fallbacks == []

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_far_from_orthonormal_falls_back(self, fallbacks, n):
        space = core.standard_form(n)
        g = core.random_so_element(space, 7)
        q = core.orthonormalize_oriented(g[:, :n])
        shear = np.eye(n)
        shear[0, -1] += 2.0
        frames = [2.0 * q, 0.5 * q, q @ shear, 0.0 * q]
        if n > 1:
            frames.append(np.hstack([q[:, :-1], q[:, :1]]))    # rank deficient
        verdicts = []
        for z in frames:
            z = np.ascontiguousarray(z)
            assert n * np.abs(z.T @ z - np.eye(n)).max() >= 0.5
            for tol in (1e-9, 1e-17):
                verdicts.append(self.same_verdict(space, z, tol))
        assert len(fallbacks) == len(verdicts)
        assert any(isinstance(v, tuple) for v in verdicts)
        assert any("rank-deficient" in v for v in verdicts if isinstance(v, str))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_isotropy_band(self, fallbacks, n):
        # delta near 0.1 and an isotropy defect near 1e-3: the band
        # [tol (1 - delta), tol (1 + delta)] is wide enough to aim into
        space = core.standard_form(n)
        rng = np.random.default_rng(n)
        q = core.orthonormalize_oriented(core.random_so_element(space, rng)[:, :n])
        z = 1.05 * q + 1e-3 * rng.normal(size=q.shape)
        delta = n * np.abs(z.T @ z - np.eye(n)).max()
        defect = np.abs(space.gram(z)).max()
        assert 0.05 < delta < 0.5
        inside = (defect / (1.0 + 0.9 * delta), defect, defect / (1.0 - 0.9 * delta))
        for i, tol in enumerate(inside):
            self.same_verdict(space, z, tol)
            assert len(fallbacks) == i + 1
        # just below the band the defect alone fails the frame, just above it
        # passes it; neither side runs the SVD checks
        below = self.same_verdict(space, z, 0.99 * defect / (1.0 + delta))
        above = self.same_verdict(space, z, 1.01 * defect / (1.0 - delta))
        assert len(fallbacks) == len(inside)
        assert below.startswith("FrameError: frame is not isotropic")
        assert isinstance(above, tuple)
