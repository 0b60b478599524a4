"""Exact linear algebra: kernels, rank, solving and the fraction-free psd check."""

from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from conftest import q, qi_matrices, qi_scalars, qi_vectors
from schurmann import (
    I,
    ONE,
    GaussianMatrix,
    QMatrix,
    QVector,
    Qi,
    ZERO,
    kernel_basis,
    psd_check,
    rank,
    solve,
)
from schurmann.linalg import gram_matrix, inner_product, project_onto_span


def test_kernel_of_rank_one_matrix():
    m = QMatrix([[ONE, q("2"), q("3")], [q("2"), q("4"), q("6")]])
    basis = kernel_basis(m)
    assert len(basis) == 2
    for v in basis:
        assert m.apply(v).is_zero()
    assert rank(m) == 1


def test_solve_frozen_example():
    m = QMatrix([[ONE, I], [ZERO, q("2")]])
    b = QVector((q(("0", "2")), q("4")))
    x = solve(m, b)
    assert x is not None
    assert m.apply(x) == b
    assert x == QVector((ZERO, q("2")))


def test_solve_inconsistent_returns_none():
    m = QMatrix([[ONE, ONE], [ONE, ONE]])
    assert solve(m, QVector((ONE, -ONE))) is None


def test_psd_frozen_examples():
    assert psd_check(QMatrix([[q("2"), ONE], [ONE, q("2")]]))
    assert not psd_check(QMatrix([[ONE, q("2")], [q("2"), ONE]]))
    assert psd_check(QMatrix.zero(3, 3))
    # hermitian with complex off-diagonal, eigenvalues 0 and 2
    assert psd_check(QMatrix([[ONE, I], [-I, ONE]]))
    assert not psd_check(QMatrix([[ONE, q(("0", "2"))], [q(("0", "-2")), ONE]]))
    # zero diagonal with a purely imaginary off-diagonal pair
    assert not psd_check(QMatrix([[ZERO, I], [-I, ZERO]]))


def test_psd_check_refuses_non_hermitian_input():
    with pytest.raises(ValueError):
        psd_check(QMatrix([[ONE, ZERO, ZERO], [ZERO, ONE, ZERO]]))
    with pytest.raises(ValueError):
        psd_check(QMatrix([[ONE, I], [I, ONE]]))
    with pytest.raises(ValueError):
        psd_check(QMatrix([[ONE, ONE], [ZERO, ONE]]))
    # im symmetric instead of antisymmetric: [[1, i], [i, 1]] over 2
    with pytest.raises(ValueError):
        psd_check(GaussianMatrix([[1, 0], [0, 1]], [[0, 1], [1, 0]], 2))


@pytest.fixture(scope="module")
def principal_minors():
    """All principal minors of a square QMatrix, exactly, from sympy's
    DomainMatrix over QQ_I: an engine independent of schurmann.linalg."""
    pytest.importorskip("sympy")
    from sympy import QQ, QQ_I
    from sympy.polys.matrices import DomainMatrix

    def minors(m):
        n = m.rows
        a = [[QQ_I(QQ(z.a, z.den), QQ(z.b, z.den)) for z in row] for row in m.data]
        return [
            DomainMatrix([[a[i][j] for j in s] for i in s], (len(s), len(s)), QQ_I).det()
            for size in range(1, n + 1)
            for s in combinations(range(n), size)
        ]

    return minors


def _perturbed_grams(data):
    """V V* for an n x r matrix V, 0 <= r <= n <= 6, with up to two perturbations."""
    n = data.draw(st.integers(0, 6))
    r = data.draw(st.integers(0, n))
    rows = st.lists(st.lists(qi_scalars, min_size=r, max_size=r), min_size=n, max_size=n)
    v = QMatrix(data.draw(rows), cols=r)
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
    assert psd_check(m) == all(det.x >= 0 for det in principal_minors(m))


@given(qi_matrices(3, 2))
def test_gram_always_psd(m):
    assert psd_check(m.adjoint() @ m)


@given(qi_matrices(2, 4))
def test_rank_nullity(m):
    basis = kernel_basis(m)
    assert rank(m) + len(basis) == m.cols
    for v in basis:
        assert m.apply(v).is_zero()


@given(qi_matrices(3, 3), qi_vectors(3))
def test_solve_agrees_with_apply(m, x):
    b = m.apply(x)
    y = solve(m, b)
    assert y is not None
    assert m.apply(y) == b


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
    assert n.is_real()
    assert n.re >= 0


def test_gram_and_projection():
    e1 = QVector((ONE, ZERO))
    v = QVector((ONE, ONE))
    g = gram_matrix([e1, v])
    assert g == QMatrix([[ONE, ONE], [ONE, q("2")]])
    p = project_onto_span([e1], v)
    assert p == QVector((ONE, ZERO))
