"""Exact linear algebra: kernels, rank, solving and the psd check on a Gram core."""

import random
from itertools import combinations
from math import isqrt, lcm, prod

import pytest
from hypothesis import given, settings, strategies as st

from conftest import apply, q, qi_matrices, qi_scalars, qi_vectors, real_scalars
from schurmann import (
    I,
    ONE,
    GaussianMatrix,
    Gram,
    QMatrix,
    QVector,
    Qi,
    ZERO,
    kernel_basis,
    psd_check,
    rank,
    rational,
    solve,
)
from schurmann import schurmann_functional
from schurmann.functional import default_word_pool, pool_gram_matrix
from schurmann.linalg import (
    _numerators,
    _rref,
    gram_matrix,
    inner_product,
    project_onto_span,
)


def test_kernel_of_rank_one_matrix():
    m = QMatrix([[ONE, q("2"), q("3")], [q("2"), q("4"), q("6")]])
    basis = kernel_basis(m)
    assert len(basis) == 2
    for v in basis:
        assert apply(m, v).is_zero()
    assert rank(m) == 1


def test_solve_frozen_example():
    m = QMatrix([[ONE, I], [ZERO, q("2")]])
    b = QVector((q(("0", "2")), q("4")))
    x = solve(m, b)
    assert x is not None
    assert apply(m, x) == b
    assert x == QVector((ZERO, q("2")))


def test_solve_inconsistent_returns_none():
    m = QMatrix([[ONE, ONE], [ONE, ONE]])
    assert solve(m, QVector((ONE, -ONE))) is None


def test_kernel_with_a_gaussian_pivot():
    # 2 + i has content 1, so the row step cannot divide it out: the reduced
    # form reads -1 / (2 + i) = (-2 + i) / 5 from the numerator row
    m = QMatrix([[Qi(2, 1), ONE], [Qi(4, 2), q("2")]])
    assert kernel_basis(m) == [QVector((q(("-2/5", "1/5")), ONE))]
    assert rank(m) == 1
    assert solve(m, QVector((Qi(0, 5), Qi(0, 10)))) == QVector((Qi(1, 2), ZERO))


def test_gaussian_pivots_keep_numerators_small():
    # (2 + i) B for a dense 16 x 16 integer B of rank 15: every pivot is a
    # multiple of 2 + i, which would pile up in the rows unless the pivot is
    # made real.  The numerators stay within the Hadamard bound of B's minors.
    rng = random.Random(7)
    b = [[rng.randint(-5, 5) for _ in range(16)] for _ in range(15)]
    b.append([x + y for x, y in zip(b[0], b[1])])
    hadamard = prod(isqrt(sum(x * x for x in row)) + 1 for row in b)
    m = QMatrix([[Qi(2 * x, x) for x in row] for row in b])
    rows, pivots = _rref(*_numerators(m.data), m.cols)
    assert len(pivots) == rank(m) == 15
    assert max(abs(v).bit_length() for row in rows for part in row for v in part) <= (
        hadamard.bit_length() + 2
    )
    # B itself is eliminated on its real part alone, within the same bound
    real = QMatrix([[Qi(x) for x in row] for row in b])
    rows, pivots = _rref(*_numerators(real.data), real.cols)
    assert len(pivots) == 15 and all(im == [0] * 16 for _, im in rows)
    assert max(abs(v).bit_length() for row, _ in rows for v in row) <= hadamard.bit_length() + 2
    (v,) = kernel_basis(m)
    assert [v] == kernel_basis(real)
    assert apply(m, v).is_zero()
    rhs = apply(m, QVector(Qi(j, 1 - j) for j in range(16)))
    assert apply(m, solve(m, rhs)) == rhs


def test_psd_frozen_examples():
    assert psd_check(_as_gram(QMatrix([[q("2"), ONE], [ONE, q("2")]])))
    assert not psd_check(_as_gram(QMatrix([[ONE, q("2")], [q("2"), ONE]])))
    assert psd_check(_as_gram(QMatrix.zero(3, 3)))
    # hermitian with complex off-diagonal, eigenvalues 0 and 2
    assert psd_check(_as_gram(QMatrix([[ONE, I], [-I, ONE]])))
    assert not psd_check(_as_gram(QMatrix([[ONE, q(("0", "2"))], [q(("0", "-2")), ONE]])))
    # zero diagonal with a purely imaginary off-diagonal pair
    assert not psd_check(_as_gram(QMatrix([[ZERO, I], [-I, ZERO]])))
    # positive definite (minors 2, 6, 7); row 1 is 0 in the first pivot's
    # column, so the first step only scales it
    assert psd_check(_as_gram(QMatrix([[Qi(x) for x in row] for row in ([2, 0, 1], [0, 3, 1], [1, 1, 2])])))


def test_psd_check_takes_a_gram_only():
    # a QMatrix or GaussianMatrix is refused, not factored on entry
    for m in (QMatrix([[ONE, ZERO], [ZERO, ONE]]), GaussianMatrix([[1, 0], [0, 1]], [[0, 0], [0, 0]], 1)):
        with pytest.raises(TypeError, match="Gram"):
            psd_check(m)
    assert psd_check(_as_gram(QMatrix([[ONE, ZERO], [ZERO, ONE]])))


def test_psd_check_refuses_non_hermitian_input(eta_sym_u2):
    with pytest.raises(ValueError):
        psd_check(_as_gram(QMatrix([[ONE, ZERO, ZERO], [ZERO, ONE, ZERO]])))
    with pytest.raises(ValueError):
        psd_check(_as_gram(QMatrix([[ONE, I], [I, ONE]])))
    with pytest.raises(ValueError):
        psd_check(_as_gram(QMatrix([[ONE, ONE], [ZERO, ONE]])))
    # im symmetric instead of antisymmetric: [[1, i], [i, 1]] over 2
    with pytest.raises(ValueError):
        psd_check(_gram_rows([[1, 0], [0, 1]], [[0, 1], [1, 0]], 2))
    # re not symmetric: entry (3, 1) is 1, entry (1, 3) is 0
    with pytest.raises(ValueError):
        psd_check(_gram_rows([[1, 0, 0], [0, 1, 0], [1, 0, 1]], [[0] * 3 for _ in range(3)], 1))
    # a non-real diagonal entry, 1 + i, with the rest Hermitian
    with pytest.raises(ValueError):
        psd_check(_gram_rows([[1, 0], [0, 1]], [[1, 0], [0, 0]], 1))
    # a pool Gram H* H whose left factor is off by i in one entry of a word
    # with a nonzero real part: Z* H is no longer Hermitian
    gram = pool_gram_matrix(schurmann_functional(eta_sym_u2), default_word_pool(2))
    h = gram.h
    assert gram.z is h
    p = next(j for j, x in enumerate(h.re[0]) if x)
    im = [list(row) for row in h.im]
    im[0][p] += h.den
    bad = Gram(GaussianMatrix(h.re, im, h.den, h.cols), h)
    assert not QMatrix([bad[i] for i in range(bad.rows)]).is_hermitian()
    with pytest.raises(ValueError):
        psd_check(bad)
    # entries of 2^70: re is off in one entry
    big = 2**70
    re = [[big, 1, 0], [1, big, 0], [0, 1, big]]
    with pytest.raises(ValueError):
        psd_check(_gram_rows(re, [[0] * 3 for _ in range(3)], 1))


@pytest.fixture(scope="module")
def principal_minors():
    """All principal minors of a square QMatrix, exactly, from sympy's
    DomainMatrix over QQ_I: an engine independent of schurmann.linalg."""
    pytest.importorskip("sympy")
    from sympy import QQ, QQ_I
    from sympy.polys.matrices import DomainMatrix

    def minors(m, max_order=None):
        """Those of order <= max_order (default all); the others vanish on a
        matrix of rank <= max_order."""
        n = m.rows
        a = [[QQ_I(QQ(z.a, z.den), QQ(z.b, z.den)) for z in row] for row in m.data]
        return [
            DomainMatrix([[a[i][j] for j in s] for i in s], (len(s), len(s)), QQ_I).det()
            for size in range(1, min(n, n if max_order is None else max_order) + 1)
            for s in combinations(range(n), size)
        ]

    return minors


@pytest.fixture(scope="module")
def reduced_form():
    """(reduced row echelon form, pivot columns) of a QMatrix from sympy's
    DomainMatrix over QQ_I, the entries brought back to Qi."""
    pytest.importorskip("sympy")
    from sympy import QQ, QQ_I
    from sympy.polys.matrices import DomainMatrix

    def qi(z):
        return Qi(*(rational(f"{p.numerator}/{p.denominator}") for p in (z.x, z.y)))

    def rref(m):
        a = [[QQ_I(QQ(z.a, z.den), QQ(z.b, z.den)) for z in row] for row in m.data]
        r, pivots = DomainMatrix(a, m.shape, QQ_I).rref()
        return [[qi(z) for z in row] for row in r.to_list()], list(pivots)

    return rref


# 2 + i, 1 + 2i and 1 - 3i are pivots whose Gaussian factor no integer divides out
gaussian_entries = st.one_of(
    st.just(ZERO), qi_scalars, st.sampled_from([Qi(2, 1), Qi(1, 2), Qi(1, -3), Qi(3)])
)
# rational entries only, for the real elimination
real_entries = st.one_of(st.just(ZERO), real_scalars, st.sampled_from([Qi(2), Qi(-3), Qi(5)]))


def _drawn_matrix(data):
    """A random, rank-deficient, zero-row, zero-column or real r x c matrix,
    0 <= r, c <= 5; a real one is random or of rank below min(r, c)."""
    r, c = data.draw(st.integers(0, 5)), data.draw(st.integers(0, 5))
    kind = data.draw(st.sampled_from(["random", "rank-deficient", "zero row", "zero column", "real"]))
    if kind == "real":
        k = data.draw(st.one_of(st.none(), st.integers(0, max(min(r, c) - 1, 0))))
        if k is not None:
            return _product(data, r, k, c, real_entries)
        return QMatrix(data.draw(_grid(r, c, real_entries)), cols=c)
    if kind == "rank-deficient":
        # a product through k < min(r, c) dimensions, or r, c when one is 0
        return _product(data, r, data.draw(st.integers(0, max(min(r, c) - 1, 0))), c)
    a = data.draw(_grid(r, c))
    if kind == "zero row" and r:
        a[data.draw(st.integers(0, r - 1))] = [ZERO] * c
    if kind == "zero column" and c:
        j = data.draw(st.integers(0, c - 1))
        for row in a:
            row[j] = ZERO
    return QMatrix(a, cols=c)


def _grid(r, c, entries=gaussian_entries):
    return st.lists(st.lists(entries, min_size=c, max_size=c), min_size=r, max_size=r)


def _product(data, r, k, c, entries=gaussian_entries):
    """A drawn r x c QMatrix through k inner dimensions."""
    u, v = (data.draw(_grid(*shape, entries)) for shape in ((r, k), (k, c)))
    return QMatrix(u, cols=k) @ QMatrix(v, cols=c)


def _as_gaussian(m):
    """The QMatrix m as a GaussianMatrix over the lcm of its denominators."""
    den = lcm(*(z.den for row in m.data for z in row))
    return GaussianMatrix(*_numerators(m.data), den, m.cols)


def _identity(n):
    return GaussianMatrix([[int(i == j) for j in range(n)] for i in range(n)], [[0] * n for _ in range(n)], 1)


def _gram_rows(re, im, den):
    """The N x N numerator rows (re, im) over den as Gram(I, m)."""
    return Gram(_identity(len(re)), GaussianMatrix(re, im, den, len(re[0])))


def _as_gram(m):
    """The QMatrix m as Gram(I, m): its rows, over the lcm of their
    denominators, are the right factor, the identity the left one."""
    return Gram(_identity(m.rows), _as_gaussian(m))


def _oracle_kernel(reduced_form, m):
    """The kernel basis of m's reduced form: e_f - sum_r red[r][f] e_(pivot r), f free."""
    red, pivots = reduced_form(m)
    basis = []
    for f in (c for c in range(m.cols) if c not in pivots):
        v = [ZERO] * m.cols
        v[f] = ONE
        for row, c in zip(red, pivots):
            v[c] = -row[f]
        basis.append(QVector(v))
    return basis


def _oracle_solution(reduced_form, m, b):
    """The solution of m x = b read from the reduced form of [m | b], its
    free unknowns 0, or None if the last column is a pivot column."""
    aug = QMatrix([row + (z,) for row, z in zip(m.data, b)], cols=m.cols + 1)
    red, pivots = reduced_form(aug)
    if m.cols in pivots:
        return None
    x = [ZERO] * m.cols
    for row, c in zip(red, pivots):
        x[c] = row[m.cols]
    return QVector(x)


def _drawn_rhs(data, m):
    """b drawn freely or as m x, so inconsistent and consistent systems both
    occur; x or b is real in the real arm, so that a real m has real
    systems of both kinds too."""
    entries = real_entries if data.draw(st.booleans()) else gaussian_entries
    if data.draw(st.booleans()):
        return QVector(data.draw(st.lists(entries, min_size=m.rows, max_size=m.rows)))
    return apply(m, QVector(data.draw(st.lists(entries, min_size=m.cols, max_size=m.cols))))


@settings(max_examples=150)
@given(st.data())
def test_kernel_rank_and_solve_agree_with_sympy_rref(reduced_form, data):
    m = _drawn_matrix(data)
    assert rank(m) == len(reduced_form(m)[1])
    expected = _oracle_kernel(reduced_form, m)
    assert kernel_basis(m) == expected
    assert kernel_basis(_as_gaussian(m)) == expected
    b = _drawn_rhs(data, m)
    assert solve(m, b) == _oracle_solution(reduced_form, m, b)


# 1 and -1 (repeated and negated rows), then +-k up to 2^64 + 1
row_factors = st.one_of(
    st.sampled_from([1, -1]),
    st.builds(lambda k, s: s * k, st.integers(2, 2**64 + 1), st.sampled_from([1, -1])),
)


def _with_redundant_rows(data, m, b):
    """[m | b] with up to six rows interleaved at drawn positions: a row of
    [m | b] times a drawn integer factor, or a zero row."""
    rows = [row + (z,) for row, z in zip(m.data, b)]
    source = st.integers(0, len(rows) - 1) if rows else st.none()
    out = list(rows)
    for k, f in data.draw(st.lists(st.tuples(st.none() | source, row_factors), max_size=6)):
        row = (ZERO,) * (m.cols + 1) if k is None else tuple(Qi(f) * z for z in rows[k])
        out.insert(data.draw(st.integers(0, len(out))), row)
    return QMatrix([row[:-1] for row in out], cols=m.cols), QVector(row[-1] for row in out)


@settings(max_examples=100)
@given(st.data())
def test_repeated_negated_scaled_and_zero_rows_change_nothing(reduced_form, data):
    # _rref keeps one row of each class up to sign and content and drops zero
    # rows: with the extra rows every answer is the oracle's and the same as
    # without them
    m = _drawn_matrix(data)
    b = _drawn_rhs(data, m)
    big, bb = _with_redundant_rows(data, m, b)
    assert rank(big) == len(reduced_form(big)[1]) == rank(m)
    expected = _oracle_kernel(reduced_form, big)
    assert kernel_basis(big) == kernel_basis(_as_gaussian(big)) == expected == kernel_basis(m)
    x = _oracle_solution(reduced_form, big, bb)
    assert solve(big, bb) == x == solve(m, b)


def test_rows_told_apart_by_their_imaginary_parts_are_kept():
    # (1, 1 + i) and (1, 1 - i) have the same real parts, and (-1, -1 + i)
    # becomes (1, 1 + i) if only its real parts are negated: each pair is of
    # rank 2
    x = QVector((ONE, ONE))
    for second in ([ONE, Qi(1, -1)], [-ONE, Qi(-1, 1)]):
        m = QMatrix([[ONE, Qi(1, 1)], second])
        assert rank(m) == 2 and kernel_basis(m) == []
        assert solve(m, apply(m, x)) == x
    # a row with zero real parts is not a zero row
    m = QMatrix([[ONE, ONE, ZERO], [ZERO, Qi(0, 1), ZERO]])
    assert rank(m) == 2
    assert kernel_basis(m) == [QVector((ZERO, ZERO, ONE))]
    assert solve(m, QVector((ONE, Qi(0, 1)))) == QVector((ZERO, ONE, ZERO))


def _perturbed_grams(data):
    """V V* for an n x r matrix V, 0 <= r <= n <= 6, often of full rank r = n,
    V scaled by 1, 2^31 or 2^40 + 1 (entries of 2^62 and more), with up to
    two perturbations."""
    n = data.draw(st.integers(0, 6))
    r = data.draw(st.one_of(st.just(n), st.integers(0, n)))
    rows = st.lists(st.lists(qi_scalars, min_size=r, max_size=r), min_size=n, max_size=n)
    v = QMatrix(data.draw(rows), cols=r).scale(Qi(data.draw(st.sampled_from([1, 2**31, 2**40 + 1]))))
    a = [list(row) for row in (v @ v.adjoint()).data]
    kinds = ["negative diagonal", "zero row and column"] if n else []
    kinds += ["complex pair"] if n > 1 else []
    perturbations = data.draw(st.lists(st.sampled_from(kinds), max_size=2)) if kinds else []
    for kind in perturbations:
        if kind == "negative diagonal":
            i = data.draw(st.integers(0, n - 1))
            a[i][i] = data.draw(st.integers(-4, -1).map(Qi))
        elif kind == "zero row and column":
            i = data.draw(st.integers(0, n - 1))
            for j in range(n):
                a[i][j] = a[j][i] = ZERO
        else:
            i, j = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
            z = Qi(data.draw(st.integers(-2, 2)), data.draw(st.integers(-2, 2).filter(bool)))
            a[i][j], a[j][i] = z, z.conj()
    return QMatrix(a, cols=n)


@settings(max_examples=150)
@given(st.data())
def test_psd_check_agrees_with_principal_minors(principal_minors, data):
    # a Hermitian matrix is psd iff every principal minor (real) is >= 0
    m = _perturbed_grams(data)
    want = all(det.x >= 0 for det in principal_minors(m))
    assert psd_check(_as_gram(m)) == want


def _drawn_factors(data):
    """(Z, H), n x N QMatrix factors, 0 <= n <= 4 and 0 <= N <= 8: H of
    drawn rank with drawn zero columns; Z = H, Z = T H for a Hermitian T,
    possibly indefinite, or Z drawn freely (not of the form T H), then one
    entry of Z perturbed in about a fifth of the cases."""
    n, size = data.draw(st.integers(0, 4)), data.draw(st.integers(0, 8))
    h = _product(data, n, data.draw(st.one_of(st.just(n), st.integers(0, n))), size)
    zeros = data.draw(st.sets(st.integers(0, size - 1), max_size=2)) if size else set()
    h = QMatrix([[ZERO if j in zeros else x for j, x in enumerate(row)] for row in h.data], cols=size)
    kind = data.draw(st.sampled_from(["star", "hermitian", "hermitian", "free"]))
    if kind == "star":
        z = h
    elif kind == "hermitian":
        t = _product(data, n, n, n)
        z = (t + t.adjoint()) @ h
    else:
        z = _product(data, n, n, size)
    z = [list(row) for row in z.data]
    if n and size and data.draw(st.integers(0, 4)) == 0:
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, size - 1))
        z[i][j] = z[i][j] + data.draw(st.sampled_from([ONE, -ONE, I, Qi(2, -1)]))
    return QMatrix(z, cols=size), h


@settings(max_examples=100)
@given(st.data())
def test_psd_check_on_factors_agrees_with_principal_minors(principal_minors, data):
    # G = Z* H from its factors: refused iff not Hermitian, else psd iff
    # every principal minor of order <= n is >= 0 (G has rank <= n, so the
    # larger ones vanish)
    z, h = _drawn_factors(data)
    g = Gram(_as_gaussian(z), _as_gaussian(h))
    m = z.adjoint() @ h if z.rows else QMatrix.zero(h.cols, h.cols)
    assert [g[i] for i in range(g.rows)] == [list(row) for row in m.data]
    if not m.is_hermitian():
        with pytest.raises(ValueError, match="Hermitian"):
            psd_check(g)
        return
    assert psd_check(g) == all(det.x >= 0 for det in principal_minors(m, z.rows))


def _interleaved(a, zeros, n):
    """The Hermitian QMatrix a spread over n rows and columns, with zero rows
    and columns at the indices in zeros."""
    at = [i for i in range(n) if i not in zeros]
    out = [[ZERO] * n for _ in range(n)]
    for i, row in zip(at, a.data):
        for j, z in zip(at, row):
            out[i][j] = z
    return QMatrix(out, cols=n)


@settings(max_examples=60)
@given(st.data())
def test_psd_check_with_interleaved_zero_rows(principal_minors, data):
    # V V*, perturbed or not, with zero rows and columns spread between its
    # own, scaled by 1 or by 2^64 + 1 (prime to every denominator drawn,
    # products of 2 and 3): a zero row is never a pivot, and its diagonal
    # entry is no verdict
    core = data.draw(st.integers(0, 4))
    v = QMatrix(data.draw(_grid(core, core)), cols=core)
    a = [list(row) for row in (v @ v.adjoint()).data]
    if core and data.draw(st.booleans()):
        i = data.draw(st.integers(0, core - 1))
        a[i][i] = a[i][i] - Qi(data.draw(st.integers(1, 4)))
    wide = data.draw(st.booleans())
    a = QMatrix(a, cols=core).scale(Qi(2**64 + 1 if wide else 1))
    n = core + data.draw(st.integers(1, 3))
    zeros = set(data.draw(st.lists(st.integers(0, n - 1), min_size=n - core, max_size=n - core, unique=True)))
    m = _interleaved(a, zeros, n)
    want = all(det.x >= 0 for det in principal_minors(m))
    assert psd_check(_as_gram(m)) == want


@pytest.mark.parametrize("scale", [1, 2**63])
@pytest.mark.parametrize("z", [Qi(1, 1), Qi(1, -1), Qi(2), Qi(0, 3)])
@pytest.mark.parametrize("above, below", [(1, 0), (0, 1), (1, -1)])
def test_psd_check_refuses_a_zero_row_with_a_nonzero_column(scale, z, above, below):
    # row 1 is zero, its column is not: entry (0, 1) is above z and entry
    # (2, 1) below z.  A Hermitian test that skips zero rows, reads one
    # triangle only, or compares re + im of one side with re - im of the
    # other lets one of them through; entries of 2^63 and 1 both
    c = Qi(scale)
    m = QMatrix([[c, Qi(above) * z * c, ZERO], [ZERO, ZERO, ZERO], [ZERO, Qi(below) * z * c, c]])
    with pytest.raises(ValueError, match="Hermitian"):
        psd_check(_as_gram(m))


def test_gaussian_matrix_refuses_ragged_grids():
    with pytest.raises(ValueError, match="one shape"):
        GaussianMatrix([[1, 2], [3]], [[0, 0], [0]], 1, 2)
    with pytest.raises(ValueError, match="one shape"):
        GaussianMatrix([[1, 2]], [[0, 0], [0, 0]], 1, 2)
    with pytest.raises(ValueError, match="positive denominator"):
        GaussianMatrix([[1]], [[0]], 0)


@given(qi_matrices(3, 2))
def test_gram_always_psd(m):
    assert psd_check(_as_gram(m.adjoint() @ m))


@given(qi_matrices(2, 4))
def test_rank_nullity(m):
    basis = kernel_basis(m)
    assert rank(m) + len(basis) == m.cols
    for v in basis:
        assert apply(m, v).is_zero()


@given(qi_matrices(3, 3), qi_vectors(3))
def test_solve_agrees_with_apply(m, x):
    b = apply(m, x)
    y = solve(m, b)
    assert y is not None
    assert apply(m, y) == b


@given(qi_matrices(2, 3), qi_matrices(3, 2), qi_matrices(2, 2))
def test_matmul_associative_and_adjoint(a, b, c):
    assert (a @ b) @ c == a @ (b @ c)
    assert (a @ b).adjoint() == b.adjoint() @ a.adjoint()
    assert a.adjoint() == a.conj().transpose()
    assert a.transpose().transpose() == a


@given(qi_vectors(3), qi_vectors(3))
def test_inner_product_hermitian(x, y):
    assert inner_product(x, y) == inner_product(y, x).conj()
    n = inner_product(x, x)
    assert n.im == 0
    assert n.re >= 0


def test_gram_and_projection():
    e1 = QVector((ONE, ZERO))
    v = QVector((ONE, ONE))
    g = gram_matrix([e1, v])
    assert g == QMatrix([[ONE, ONE], [ONE, q("2")]])
    p = project_onto_span([e1], v)
    assert p == QVector((ONE, ZERO))
