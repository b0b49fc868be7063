"""Elements and words of the affine isometry group of R^(n+1,n).

An affine isometry is a pair (A, u) acting as x -> A x + u, with A in the
identity component of the form-preserving determinant-one group.  Membership
is verified at ingestion and is a hard error; word evaluation afterwards is
plain floating composition with no re-orthogonalization, so conditioning
issues are not hidden: form_defect measures them for any element, though
reports do not yet carry a per-word form defect.

A whole word ball is evaluated by ball_elements, which walks the prefix tree
of reduced words with one composition per word; evaluate_word forms the same
products one word at a time.
"""

from dataclasses import dataclass, field

import numpy as np

from .core import (
    DEFAULT_TOL,
    GeometryError,
    OrientationError,
    canonical_orientation,
    default_positive_frame,
    _readonly,
)


class MembershipError(GeometryError):
    """A matrix or affine pair is not a valid group element."""


class WordError(GeometryError):
    """A letter sequence is not a reduced word over the given rank."""


class BlockFormError(GeometryError):
    """A matrix does not have the expected reductive block form."""


def form_defect(space, a):
    """max |A^T J A - J|, the membership residual reported per word."""
    a = np.asarray(a, dtype=float)
    return float(np.abs(a.T @ space.form @ a - space.form).max())


def _scale(a):
    # tolerance scale for products: float error in A^T J A grows like ||A||^2
    return 1.0 + float(np.linalg.norm(a, 2)) ** 2


def validate_membership(space, a, tol=DEFAULT_TOL):
    """Check A^T J A = J, det A = 1 and the identity-component test.

    The shape is checked here, the rest by in_identity_component.  Raises
    MembershipError naming the failed invariant; tolerances scale with
    ||A||^2 so well-formed products of large elements are not rejected.
    """
    a = np.asarray(a, dtype=float)
    if a.shape != (space.dim, space.dim):
        raise MembershipError("linear part must be %dx%d, got %r"
                              % (space.dim, space.dim, a.shape))
    if not in_identity_component(space, a, tol=tol).in_component:
        raise MembershipError("orientation test failed: element lies outside the "
                              "identity component")


@dataclass(frozen=True)
class IdentityComponentCheck:
    """Verdict of the orientation-based identity-component test.

    compressed_det is the determinant of the action compressed to the default
    positive-definite subspace; isotropic_sign is the canonical orientation of
    the image of the standard isotropic frame.  The two diagnostics agree for
    every genuine element.
    """

    in_component: bool
    compressed_det: float
    isotropic_sign: int


def in_identity_component(space, a, tol=DEFAULT_TOL):
    """Orientation test: does A preserve orientations on positive subspaces?

    Requires A^T J A = J and det A = 1 (an error otherwise, not a verdict).
    """
    a = np.asarray(a, dtype=float)
    scale = _scale(a)
    defect = form_defect(space, a)
    if defect > tol * scale:
        raise MembershipError("form not preserved: max |A^T J A - J| = %.3e "
                              "(allowed %.3e)" % (defect, tol * scale))
    det = float(np.linalg.det(a))
    if abs(det - 1.0) > tol * scale:
        raise MembershipError("det A = %.17g, not 1 within tolerance" % det)

    pos = default_positive_frame(space).columns
    # compress the action to the reference positive subspace: the basis is
    # b-orthonormal, so b-pairings are the coordinates of the projected images
    compressed_det = float(np.linalg.det(pos.T @ space.form @ a @ pos))
    if abs(compressed_det) <= tol:
        raise OrientationError("compressed determinant %.3e numerically "
                               "indeterminate" % compressed_det)
    iso_sign = canonical_orientation(space, a @ np.eye(space.dim)[:, : space.n],
                                     tol=tol)
    verdict = compressed_det > 0
    if verdict != (iso_sign > 0):
        raise OrientationError("positive-subspace and isotropic orientation "
                               "diagnostics disagree (det %.3e, sign %d)"
                               % (compressed_det, iso_sign))
    return IdentityComponentCheck(in_component=verdict,
                                  compressed_det=compressed_det,
                                  isotropic_sign=iso_sign)


@dataclass(frozen=True)
class AffineIsometry:
    """Pair (linear, translation) acting as x -> A x + u."""

    space: object
    linear: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.linear, dtype=float)
        u = np.asarray(self.translation, dtype=float).reshape(-1)
        if a.shape != (self.space.dim, self.space.dim) or u.shape != (self.space.dim,):
            raise MembershipError("affine pair has wrong dimensions for n=%d"
                                  % self.space.n)
        object.__setattr__(self, "linear", _readonly(a))
        object.__setattr__(self, "translation", _readonly(u))

    def apply(self, x):
        return self.linear @ np.asarray(x, dtype=float) + self.translation


def identity_isometry(space):
    return AffineIsometry(space, np.eye(space.dim), np.zeros(space.dim))


def affine_isometry(space, linear, translation=None, tol=DEFAULT_TOL):
    """Membership-checked affine isometry; use for ingestion of new elements."""
    validate_membership(space, linear, tol=tol)
    if translation is None:
        translation = np.zeros(space.dim)
    return AffineIsometry(space, linear, translation)


def compose(g, h):
    """(A_g A_h, A_g u_h + u_g): first apply h, then g."""
    return AffineIsometry(g.space, g.linear @ h.linear,
                          g.linear @ h.translation + g.translation)


def inverse(g):
    """(A^{-1}, -A^{-1} u)."""
    ainv = np.linalg.inv(g.linear)
    return AffineIsometry(g.space, ainv, -ainv @ g.translation)


def power(g, k):
    """k-th power, negative k through the inverse."""
    if k < 0:
        return power(inverse(g), -k)
    out = identity_isometry(g.space)
    for _ in range(k):
        out = compose(out, g)
    return out


@dataclass(frozen=True)
class ReducedWord:
    """Reduced word in a free group: nonzero letters, no cancelling pair."""

    letters: tuple

    def __post_init__(self):
        letters = tuple(int(l) for l in self.letters)
        for l in letters:
            if l == 0:
                raise WordError("letters are nonzero integers")
        for a, b in zip(letters, letters[1:]):
            if a == -b:
                raise WordError("word %r is not reduced (%d followed by %d)"
                                % (letters, a, b))
        object.__setattr__(self, "letters", letters)

    def __len__(self):
        return len(self.letters)

    def display(self):
        """Human form with letters a, b, c, ... and inverse superscripts."""
        if not self.letters:
            return "1"
        parts = []
        for l in self.letters:
            name = chr(ord("a") + abs(l) - 1)
            parts.append(name if l > 0 else name + "⁻¹")
        return " ".join(parts)

    def inverse(self):
        return ReducedWord(tuple(-l for l in reversed(self.letters)))


EMPTY_WORD = ReducedWord(())


def reduce_letters(letters):
    """Freely reduce a letter sequence."""
    out = []
    for l in letters:
        if out and out[-1] == -l:
            out.pop()
        else:
            out.append(int(l))
    return ReducedWord(tuple(out))


def concat(u, v):
    return reduce_letters(u.letters + v.letters)


def _alphabet(rank):
    # enumeration order: a, a^-1, b, b^-1, ...
    out = []
    for i in range(1, rank + 1):
        out.extend([i, -i])
    return out


def _prefix_walk(rank, max_len, root, extend):
    """(letters, value) for each reduced word of length 1..max_len.

    Level by level, each level extended in alphabet order a, a^-1, b, b^-1,
    ...; a word's value is extend(value of its parent prefix, last letter),
    the empty word's is root.  Only the previous level is kept, and the last
    level not at all.
    """
    if rank < 1 or max_len < 1:
        raise WordError("rank and max_len must be >= 1")
    letters = _alphabet(rank)
    level = [((), root)]
    for depth in range(max_len):
        nxt = []
        keep = depth < max_len - 1
        for w, value in level:
            for l in letters:
                if not w or l != -w[-1]:
                    child = (w + (l,), extend(value, l))
                    if keep:
                        nxt.append(child)
                    yield child
        level = nxt


def word_ball(rank, max_len):
    """All reduced words of length 1..max_len in deterministic order.

    Level by level, each level extended in alphabet order a, a^-1, b, b^-1,
    ...; the count is sum over m of 2k(2k-1)^(m-1).
    """
    return [ReducedWord(w) for w, _ in
            _prefix_walk(rank, max_len, None, lambda value, l: None)]


def conjugacy_key(word):
    """Key shared by the conjugacy classes of word and of its inverse.

    Returns (key, inverted): key is the least rotation of the word's cyclic
    core or of that core's inverse, and inverted says that it came from the
    inverse.  No nontrivial element of a free group is conjugate to its
    inverse, so inverted separates the two classes.
    """
    core = word.letters
    while len(core) > 1 and core[0] == -core[-1]:
        core = core[1:-1]
    inv = tuple(-l for l in reversed(core))
    fwd = min((core[i:] + core[:i] for i in range(len(core))), default=())
    bwd = min((inv[i:] + inv[:i] for i in range(len(inv))), default=())
    return (bwd, True) if bwd < fwd else (fwd, False)


def _conjugator(w):
    """(y, c, inverted) with w = y c y^-1, or y c^-1 y^-1 when inverted.

    w = x c' x^-1 is a reduced letter tuple, c' cyclically reduced; c is the
    first rotation of c' or c'^-1 in ball order (a, a^-1, b, ...), the
    member margulis.spectrum splits.  If u = a b is c' or c'^-1 and c = b a,
    then u = a c a^-1 = b^-1 c b: y is the shortest x a or x b^-1, so
    |y| <= |x| + |c'| / 2.  None for the empty word.
    """
    t = 0
    while len(w) - 2 * t > 1 and w[t] == -w[-1 - t]:
        t += 1
    x, core = w[:t], w[t:len(w) - t]
    sides = (core, tuple(-l for l in reversed(core)))
    ranks = [tuple(2 * abs(l) - (l > 0) for l in u) for u in sides]
    least = min((rk[i:] + rk[:i] for rk in ranks for i in range(len(core))),
                default=None)
    return min(((x + u[:i] if 2 * i <= len(u) else x + tuple(-l for l in reversed(u[i:])),
                 u[i:] + u[:i], inverted)
                for inverted, u, rk in zip((False, True), sides, ranks)
                for i in range(len(u)) if rk[i:] + rk[:i] == least),
               key=lambda found: len(found[0]), default=None)


@dataclass(frozen=True)
class FreeGroupRep:
    """Free-group representation: images of k generators, validated on entry."""

    space: object
    generators: tuple
    tol: float = DEFAULT_TOL
    _inverses: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        gens = tuple(self.generators)
        if len(gens) < 2:
            raise MembershipError("free-group rank must be >= 2")
        for i, g in enumerate(gens):
            if not isinstance(g, AffineIsometry):
                raise MembershipError("generator %d is not an AffineIsometry" % (i + 1))
            try:
                validate_membership(self.space, g.linear, tol=self.tol)
            except MembershipError as exc:
                raise MembershipError("generator %d: %s" % (i + 1, exc)) from exc
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "_inverses", tuple(inverse(g) for g in gens))

    @property
    def rank(self):
        return len(self.generators)

    def letter_image(self, letter):
        if letter == 0 or abs(letter) > self.rank:
            raise WordError("letter %d outside rank %d" % (letter, self.rank))
        return self.generators[letter - 1] if letter > 0 else self._inverses[-letter - 1]


def evaluate_word(rep, word):
    """Left-to-right product of generator images; the empty word is the identity."""
    out = identity_isometry(rep.space)
    for letter in word.letters:
        out = compose(out, rep.letter_image(letter))
    return out


def ball_elements(rep, max_len):
    """(word, element) over word_ball(rep.rank, max_len), in the same order.

    One compose per word: each element extends its parent prefix's element by
    one letter image, starting from the identity, which is exactly the
    product evaluate_word forms, so every element is bitwise equal to
    evaluate_word(rep, word).  Only the previous level is kept.
    """
    def extend(g, letter):
        return compose(g, rep.letter_image(letter))

    for w, g in _prefix_walk(rep.rank, max_len, identity_isometry(rep.space),
                             extend):
        yield ReducedWord(w), g


def check_reductive_block_form(space, a, tol=DEFAULT_TOL):
    """Verify A = blockdiag(M, 1, (M^T)^{-1}) with det M > 0; return M.

    Preconditions: A in the group, stabilizing both standard maximal
    isotropics.  Distinct diagnostics for failure to stabilize, a middle entry
    other than 1, and det M <= 0; genuine identity-component elements exclude
    all three.
    """
    a = np.asarray(a, dtype=float)
    n = space.n
    scale = 1.0 + float(np.abs(a).max())
    validate_membership(space, a, tol=tol)
    lower = float(np.abs(a[n:, :n]).max())
    upper = float(np.abs(a[: n + 1, n + 1:]).max())
    if lower > tol * scale or upper > tol * scale:
        raise BlockFormError("does not stabilize both standard isotropics "
                             "(residuals %.3e, %.3e)" % (lower, upper))
    middle = float(a[n, n])
    if abs(middle - 1.0) > tol * scale:
        raise BlockFormError("middle entry is %.17g, not 1" % middle)
    m = a[:n, :n].copy()
    if np.linalg.det(m) <= 0:
        raise BlockFormError("upper block has det %.3e <= 0" % np.linalg.det(m))
    rebuilt = np.zeros_like(a)
    rebuilt[:n, :n] = m
    rebuilt[n, n] = 1.0
    rebuilt[n + 1:, n + 1:] = np.linalg.inv(m.T)
    residual = float(np.abs(rebuilt - a).max())
    if residual > tol * scale:
        raise BlockFormError("off-block entries do not vanish: rebuild residual "
                             "%.3e" % residual)
    return m
