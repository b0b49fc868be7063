"""Independent 50-digit Margulis invariants, computed with mpmath.

The oracle reads nothing from properaffine but a representation document
(the JSON that ``properaffine catalog <name>`` emits).  It rebuilds each
word's affine product (A, u) from the document's float entries at 50 digits,
letter by letter from the left, with inverse letters inverted at 50 digits,
and then follows the definitions:

- V+ / V- are spanned by the eigenvectors of A whose eigenvalue moduli are
  the n largest / n smallest;
- the neutral vector spans the b-orthogonal complement of V+ + V-, is
  b-normalized, and is signed so that (V+, nu, V-) is a positive basis once
  V+ and V- carry orientation +1;
- the orientation of a maximal isotropic frame B is sign det(B_top - B_bot)
  with B_top its first n rows and B_bot its last n rows: up to a positive
  factor, these are its coordinates in the reference negative frame
  (e_i - e_{n+1+i})/sqrt2 after projecting along the reference positive one;
- alpha = b(u, nu), gap = log of the n-th largest eigenvalue modulus and
  proxy = log of the largest.

For n = 1 the eigenvalues are roots of the characteristic cubic, polished by
Newton's method from float seeds, and the eigenvectors, the neutral line and
the orientations are cross products and 3 x 3 determinants.  Larger n goes
through ``mpmath.eig``, which is exact to the working precision but about
ten times slower per word.
"""

import mpmath
import numpy as np

DPS = 50


def _form(n):
    d = 2 * n + 1
    j = [[0] * d for _ in range(d)]
    for i in range(n):
        j[i][n + 1 + i] = j[n + 1 + i][i] = 1
    j[n][n] = 1
    return j


def _matmul(a, b):
    return [[mpmath.fsum(a[i][k] * b[k][j] for k in range(len(b)))
             for j in range(len(b[0]))] for i in range(len(a))]


def _matvec(a, v):
    return [mpmath.fsum(x * y for x, y in zip(row, v)) for row in a]


def _bilinear(n, x, y):
    """b(x, y) for the anti-block form of R^(n+1,n)."""
    return (x[n] * y[n] + mpmath.fsum(x[i] * y[n + 1 + i] + x[n + 1 + i] * y[i]
                                      for i in range(n)))


def _cross(x, y):
    return [x[1] * y[2] - x[2] * y[1], x[2] * y[0] - x[0] * y[2],
            x[0] * y[1] - x[1] * y[0]]


def _det3(c0, c1, c2):
    """Determinant of the 3 x 3 matrix with columns c0, c1, c2."""
    return mpmath.fsum(x * y for x, y in zip(c0, _cross(c1, c2)))


def _invariant_n1(a, u):
    t = a[0][0] + a[1][1] + a[2][2]
    c = (a[0][0] * a[1][1] - a[0][1] * a[1][0] + a[0][0] * a[2][2]
         - a[0][2] * a[2][0] + a[1][1] * a[2][2] - a[1][2] * a[2][1])
    det = _det3(*[[a[i][j] for i in range(3)] for j in range(3)])
    eps = mpmath.mpf(10) ** (5 - DPS)

    def root(x):
        # Newton on det(xI - A) = x^3 - t x^2 + c x - det, from a float seed
        x = mpmath.mpf(x)
        for _ in range(20):
            step = (((x - t) * x + c) * x - det) / ((3 * x - 2 * t) * x + c)
            x -= step
            if abs(step) <= eps * abs(x):
                return x
        raise ArithmeticError("Newton iteration for an eigenvalue did not converge")

    seed = np.linalg.eigvals(np.array([[float(x) for x in row] for row in a]))
    if np.any(np.abs(seed.imag) > 1e-8 * np.abs(seed)):
        raise ArithmeticError("complex eigenvalues: not proximal")
    top = root(seed.real[np.argmax(np.abs(seed))])
    # the float seed of the small eigenvalue is swamped by rounding for long
    # words; the product of the three roots is det and the middle one is ~1
    low = root(det / top)

    def eigvec(lam):
        rows = [[a[i][j] - (lam if i == j else 0) for j in range(3)] for i in range(3)]
        cands = [_cross(rows[0], rows[1]), _cross(rows[0], rows[2]),
                 _cross(rows[1], rows[2])]
        v = max(cands, key=lambda w: mpmath.fsum(x * x for x in w))
        # orientation +1: sign of the reference-negative coordinate v_0 - v_2
        return v if v[0] - v[2] > 0 else [-x for x in v]

    vplus, vminus = eigvec(top), eigvec(low)
    # kernel of [J v+ ; J v-] is the cross product of the two rows
    jp = [vplus[2], vplus[1], vplus[0]]
    jm = [vminus[2], vminus[1], vminus[0]]
    w = _cross(jp, jm)
    norm2 = _bilinear(1, w, w)
    if norm2 <= 0:
        raise ArithmeticError("neutral line is not spacelike")
    nu = [x / mpmath.sqrt(norm2) for x in w]
    if _det3(vplus, nu, vminus) < 0:
        nu = [-x for x in nu]
    logtop = mpmath.log(abs(top))
    return _bilinear(1, u, nu), logtop, logtop


def _orientation_sign(cols, n):
    diff = mpmath.matrix([[col[i] - col[n + 1 + i] for col in cols]
                          for i in range(n)])
    det = mpmath.det(diff)
    if det == 0:
        raise ArithmeticError("orientation of an isotropic frame is undefined")
    return 1 if det > 0 else -1


def _real_basis(vals, vecs, picked):
    """Real basis of the invariant subspace of the picked eigenvalues."""
    cols = []
    for k in picked:
        v = [vecs[i, k] for i in range(vecs.rows)]
        if abs(mpmath.im(vals[k])) <= mpmath.mpf(10) ** (-DPS // 2) * abs(vals[k]):
            cols.append([mpmath.re(x) for x in v])
        elif mpmath.im(vals[k]) > 0:
            cols.extend([[mpmath.re(x) for x in v], [mpmath.im(x) for x in v]])
    if len(cols) != len(picked):
        raise ArithmeticError("complex pair split across the unit circle")
    return cols


def _oriented(cols, n):
    if _orientation_sign(cols, n) < 0:
        cols = [[-x for x in cols[0]]] + cols[1:]
    return cols


def _invariant_eig(n, a, u):
    d = 2 * n + 1
    form = _form(n)
    vals, vecs = mpmath.eig(mpmath.matrix(a))
    order = sorted(range(d), key=lambda k: -abs(vals[k]))
    vplus = _oriented(_real_basis(vals, vecs, order[:n]), n)
    vminus = _oriented(_real_basis(vals, vecs, order[n + 1:]), n)
    # the b-orthogonal complement of V+ + V- is the kernel of [V+ | V-]^T J,
    # spanned by the cofactor vector of that 2n x d matrix
    rows = [_matvec(form, col) for col in vplus + vminus]
    w = [(-1) ** i * mpmath.det(mpmath.matrix(
        [[row[k] for k in range(d) if k != i] for row in rows]))
        for i in range(d)]
    norm2 = _bilinear(n, w, w)
    if norm2 <= 0:
        raise ArithmeticError("neutral line is not spacelike")
    nu = [x / mpmath.sqrt(norm2) for x in w]
    basis = mpmath.matrix(vplus + [nu] + vminus)
    if mpmath.det(basis) < 0:
        nu = [-x for x in nu]
    moduli = [abs(vals[k]) for k in order]
    return _bilinear(n, u, nu), mpmath.log(moduli[n - 1]), mpmath.log(moduli[0])


def word_invariants(document, words):
    """{letters tuple: (alpha, gap, proxy, norm)} at DPS digits.

    norm is the Frobenius norm of the word's linear part, the scale of the
    rounding error that float evaluation of the word must carry.

    ``document`` is a parsed representation document; ``words`` are letter
    tuples (a, a^-1, b, ... as 1, -1, 2, ...).  Products are evaluated left
    to right, (A, u)(B, v) = (AB, Av + u), sharing prefixes between words.
    """
    n = int(document["n"])
    d = 2 * n + 1
    with mpmath.workdps(DPS):
        letters = {}
        for i, g in enumerate(document["generators"]):
            a = [[mpmath.mpf(x) for x in g["linear"][r * d:(r + 1) * d]]
                 for r in range(d)]
            u = [mpmath.mpf(x) for x in g["translation"]]
            a_inv = mpmath.inverse(mpmath.matrix(a)).tolist()
            letters[i + 1] = (a, u)
            letters[-(i + 1)] = (a_inv, [-x for x in _matvec(a_inv, u)])
        identity = [[mpmath.mpf(int(i == j)) for j in range(d)] for i in range(d)]
        products = {(): (identity, [mpmath.mpf(0)] * d)}

        def product(word):
            if word not in products:
                a, u = product(word[:-1])
                b, v = letters[word[-1]]
                products[word] = (_matmul(a, b),
                                  [x + y for x, y in zip(_matvec(a, v), u)])
            return products[word]

        out = {}
        for w in sorted(set(words), key=len):
            a, u = product(w)
            alpha, gap, proxy = (_invariant_n1(a, u) if n == 1
                                 else _invariant_eig(n, a, u))
            norm = mpmath.sqrt(mpmath.fsum(x * x for row in a for x in row))
            out[w] = (alpha, gap, proxy, norm)
        return out
