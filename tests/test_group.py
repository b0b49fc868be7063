import numpy as np
import pytest

from properaffine import core, group


@pytest.fixture(scope="module")
def space1():
    return core.standard_form(1)


@pytest.fixture(scope="module")
def space2():
    return core.standard_form(2)


def reversing_element(n):
    # form-preserving, det 1, swaps orientation class: flip one anti-pair
    d = np.ones(2 * n + 1)
    d[0] = d[n + 1] = -1.0
    return np.diag(d)


class TestIdentityComponent:
    def test_identity(self, space1):
        assert group.in_identity_component(space1, np.eye(3)).in_component

    def test_reflection_pair_is_outside(self, space1):
        check = group.in_identity_component(space1, np.diag([-1.0, 1.0, -1.0]))
        assert not check.in_component
        assert check.compressed_det < 0
        assert check.isotropic_sign == -1

    def test_boost_is_inside(self, space1):
        check = group.in_identity_component(space1, np.diag([2.0, 1.0, 0.5]))
        assert check.in_component
        assert check.compressed_det > 0

    def test_requires_group_membership(self, space1):
        with pytest.raises(group.MembershipError):
            group.in_identity_component(space1, 2 * np.eye(3))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_compressed_det_matches_coordinates(self, n):
        # coordinates of the images of the reference positive basis in the
        # direct-sum basis [positive | negative], solved for
        space = core.standard_form(n)
        pos = core.default_positive_frame(space).columns
        basis = np.hstack([pos, core.default_negative_frame(space).columns])
        sigma = reversing_element(n)
        rng = np.random.default_rng(90 + n)
        signs = set()
        for t in range(200):
            a = core.random_so_element(space, rng)
            if t % 2:
                a = a @ sigma
            expected = np.linalg.det(np.linalg.solve(basis, a @ pos)[: n + 1])
            det = group.in_identity_component(space, a).compressed_det
            assert det == pytest.approx(expected, rel=1e-12)
            assert np.sign(det) == np.sign(expected)
            signs.add(np.sign(det))
        assert signs == {-1.0, 1.0}

    @pytest.mark.parametrize("n", [1, 2])
    def test_multiplicative(self, n):
        space = core.standard_form(n)
        sigma = reversing_element(n)
        rng = np.random.default_rng(77)
        for _ in range(120):
            a = core.random_so_element(space, rng)
            b = core.random_so_element(space, rng)
            if rng.random() < 0.5:
                a = a @ sigma
            if rng.random() < 0.5:
                b = b @ sigma
            va = group.in_identity_component(space, a).in_component
            vb = group.in_identity_component(space, b).in_component
            vab = group.in_identity_component(space, a @ b).in_component
            assert vab == (va == vb)


class TestAffineAlgebra:
    def boost(self, space1):
        return group.affine_isometry(space1, np.diag([2.0, 1.0, 0.5]),
                                     [0.0, 3.0, 0.0])

    def test_compose_with_identity(self, space1):
        g = self.boost(space1)
        e = group.identity_isometry(space1)
        got = group.compose(g, e)
        assert np.allclose(got.linear, g.linear)
        assert np.allclose(got.translation, g.translation)

    def test_compose_inverse_is_identity(self, space1):
        g = self.boost(space1)
        e = group.compose(g, group.inverse(g))
        assert np.allclose(e.linear, np.eye(3), atol=1e-14)
        assert np.allclose(e.translation, 0, atol=1e-14)

    def test_translations_add(self, space1):
        u = group.AffineIsometry(space1, np.eye(3), [1.0, 2.0, 3.0])
        v = group.AffineIsometry(space1, np.eye(3), [0.5, -1.0, 0.0])
        got = group.compose(u, v)
        assert np.allclose(got.translation, [1.5, 1.0, 3.0])
        assert np.allclose(got.linear, np.eye(3))

    def test_inverse_formula(self, space1):
        g = self.boost(space1)
        gi = group.inverse(g)
        assert np.allclose(gi.linear, np.diag([0.5, 1.0, 2.0]))
        assert np.allclose(gi.translation, [0.0, -3.0, 0.0])
        gg = group.inverse(gi)
        assert np.allclose(gg.linear, g.linear)
        assert np.allclose(gg.translation, g.translation)

    def test_membership_rejects_wrong_det(self, space1):
        bad = np.diag([1.0, -1.0, 1.0])  # preserves J but has det -1
        assert group.form_defect(space1, bad) == 0.0
        with pytest.raises(group.MembershipError, match="det"):
            group.affine_isometry(space1, bad)

    def test_membership_rejects_orientation_reversing(self, space1):
        with pytest.raises(group.MembershipError):
            group.affine_isometry(space1, np.diag([-1.0, 1.0, -1.0]))


class TestWords:
    def test_reduced_word_rejects_cancellation(self):
        with pytest.raises(group.WordError):
            group.ReducedWord((1, -1))
        with pytest.raises(group.WordError):
            group.ReducedWord((2, 0))

    def test_display(self):
        assert group.ReducedWord((1, -2, 1)).display() == "a b⁻¹ a"
        assert group.EMPTY_WORD.display() == "1"

    @pytest.mark.parametrize("rank,length,count", [
        (2, 1, 4), (2, 2, 16), (3, 2, 36), (2, 3, 52),
    ])
    def test_ball_counts(self, rank, length, count):
        words = group.word_ball(rank, length)
        assert len(words) == count
        expected = sum(2 * rank * (2 * rank - 1) ** (m - 1)
                       for m in range(1, length + 1))
        assert len(words) == expected

    def test_ball_deterministic_and_reduced(self):
        a = group.word_ball(2, 3)
        b = group.word_ball(2, 3)
        assert a == b
        assert len(set(a)) == len(a)
        assert a[0] == group.ReducedWord((1,))
        assert a[1] == group.ReducedWord((-1,))
        assert a[4] == group.ReducedWord((1, 1))

    def test_conjugacy_key(self):
        key, inverted = group.conjugacy_key(group.ReducedWord((2,)))
        # b a^-1 a^-1 b a a b^-1 is a conjugate of b
        assert group.conjugacy_key(
            group.ReducedWord((2, -1, -1, 2, 1, 1, -2))) == (key, inverted)
        assert group.conjugacy_key(group.ReducedWord((-2,))) == (key, not inverted)
        w = group.ReducedWord((1, 2, 2, -1, 2))
        key, inverted = group.conjugacy_key(w)
        for i in range(len(w)):
            rotated = group.ReducedWord(w.letters[i:] + w.letters[:i])
            assert group.conjugacy_key(rotated) == (key, inverted)
            assert group.conjugacy_key(rotated.inverse()) == (key, not inverted)
        assert group.conjugacy_key(group.ReducedWord((1, 2, 2, 1, 2)))[0] != key

    def test_conjugator(self):
        # w = y c y^-1 (or y c^-1 y^-1), c the class's first word in ball
        # order, y the shorter way round the rotation
        first = {}
        for w in group.word_ball(2, 6):
            first.setdefault(group.conjugacy_key(w)[0], w.letters)
        for w in group.word_ball(2, 6):
            y, c, inverted = group._conjugator(w.letters)
            # c is the class's member the spectrum splits
            assert c == first[group.conjugacy_key(w)[0]]
            word_c = group.ReducedWord(c)
            middle = word_c.inverse() if inverted else word_c
            product = group.concat(group.concat(group.ReducedWord(y), middle),
                                   group.ReducedWord(y).inverse())
            assert product == w
            # the shorter way round the rotation
            core = w.letters
            while len(core) > 1 and core[0] == -core[-1]:
                core = core[1:-1]
            assert len(y) <= (len(w) - len(core)) // 2 + len(core) // 2
        assert group._conjugator(()) is None

    def test_reduce_letters(self):
        assert group.reduce_letters((1, 2, -2, -1, 1)).letters == (1,)
        assert group.reduce_letters(()).letters == ()


@pytest.fixture(scope="module")
def mild_rep(space1):
    # modest norms keep accumulated products well inside the closure bound
    b = group.affine_isometry(space1, np.diag([2.0, 1.0, 0.5]), [0.0, 1.0, 0.0])
    rot = core.random_so_element(space1, np.random.default_rng(8), scale=0.3)
    c = group.affine_isometry(space1, rot @ np.diag([2.0, 1.0, 0.5]) @ np.linalg.inv(rot),
                              [0.2, 0.0, -0.1])
    return group.FreeGroupRep(space=space1, generators=(b, c))


class TestEvaluateWord:
    def test_single_letter(self, mild_rep):
        got = group.evaluate_word(mild_rep, group.ReducedWord((1,)))
        assert np.allclose(got.linear, mild_rep.generators[0].linear)

    def test_empty_word(self, mild_rep):
        got = group.evaluate_word(mild_rep, group.EMPTY_WORD)
        assert np.allclose(got.linear, np.eye(3))

    def test_inverse_letter(self, mild_rep):
        got = group.evaluate_word(mild_rep, group.ReducedWord((1, -2)))
        expect = group.compose(mild_rep.generators[0],
                               group.inverse(mild_rep.generators[1]))
        assert np.allclose(got.linear, expect.linear)
        assert np.allclose(got.translation, expect.translation)

    def test_homomorphism(self, mild_rep):
        u = group.ReducedWord((1, 2))
        v = group.ReducedWord((2, -1))
        uv = group.concat(u, v)
        left = group.evaluate_word(mild_rep, uv)
        right = group.compose(group.evaluate_word(mild_rep, u),
                              group.evaluate_word(mild_rep, v))
        assert np.allclose(left.linear, right.linear, atol=1e-12)
        assert np.allclose(left.translation, right.translation, atol=1e-12)

    def test_membership_closed_under_words(self, mild_rep):
        # accumulated defect of length <= 12 products stays within 10 * tol
        space = mild_rep.space
        for w in group.word_ball(2, 4):
            word12 = group.reduce_letters(w.letters * 3)
            g = group.evaluate_word(mild_rep, word12)
            defect = group.form_defect(space, g.linear)
            scale = 1.0 + np.linalg.norm(g.linear, 2) ** 2
            assert defect <= 10 * mild_rep.tol * scale

    def test_ball_elements_equal_evaluated_words(self, mild_rep):
        walk = list(group.ball_elements(mild_rep, 4))
        assert [w for w, _ in walk] == group.word_ball(2, 4)
        for w, g in walk:
            ref = group.evaluate_word(mild_rep, w)
            assert np.array_equal(g.linear, ref.linear)
            assert np.array_equal(g.translation, ref.translation)

    def test_letter_outside_rank(self, mild_rep):
        with pytest.raises(group.WordError):
            group.evaluate_word(mild_rep, group.ReducedWord((3,)))


class TestFreeGroupRep:
    def test_rejects_invalid_generator(self, space1):
        good = group.affine_isometry(space1, np.diag([2.0, 1.0, 0.5]))
        bad = group.AffineIsometry(space1, np.diag([-1.0, 1.0, -1.0]),
                                   np.zeros(3))
        with pytest.raises(group.MembershipError, match="generator 2"):
            group.FreeGroupRep(space=space1, generators=(good, bad))

    def test_rank(self, mild_rep):
        assert mild_rep.rank == 2


class TestReductiveBlockForm:
    def test_identity(self, space2):
        m = group.check_reductive_block_form(space2, np.eye(5))
        assert np.array_equal(m, np.eye(2))

    def test_boost_n1(self, space1):
        m = group.check_reductive_block_form(space1, np.diag([2.0, 1.0, 0.5]))
        assert np.array_equal(m, [[2.0]])

    def test_unipotent_block_n2(self, space2):
        # build A from M by the block recipe, then confirm it is in the group
        m = np.array([[1.0, 1.0], [0.0, 1.0]])
        a = np.zeros((5, 5))
        a[:2, :2] = m
        a[2, 2] = 1.0
        a[3:, 3:] = np.linalg.inv(m.T)
        assert group.form_defect(space2, a) < 1e-14
        got = group.check_reductive_block_form(space2, a)
        assert np.allclose(got, m)
        rebuilt = np.zeros((5, 5))
        rebuilt[:2, :2] = got
        rebuilt[2, 2] = 1.0
        rebuilt[3:, 3:] = np.linalg.inv(got.T)
        assert np.allclose(rebuilt, a, atol=1e-12)

    def test_rejects_non_stabilizing(self, space1):
        rot = core.random_so_element(space1, 3)
        with pytest.raises(group.BlockFormError, match="stabilize"):
            group.check_reductive_block_form(space1, rot)

    def test_random_gl_plus_blocks_pass(self, space2):
        rng = np.random.default_rng(10)
        for _ in range(20):
            m = rng.normal(size=(2, 2))
            if np.linalg.det(m) < 0:
                m[:, 0] = -m[:, 0]
            a = np.zeros((5, 5))
            a[:2, :2] = m
            a[2, 2] = 1.0
            a[3:, 3:] = np.linalg.inv(m.T)
            got = group.check_reductive_block_form(space2, a)
            assert np.allclose(got, m)
