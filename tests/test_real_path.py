"""The real path of the word-set evaluator and of the elimination against
the Gaussian path.

On a real rho, real coefficients and real letter values
`words.word_set_values` computes the real half alone, and `linalg._rref`
steps two real rows on one part.  1 + i times a real input takes the
Gaussian path, and by linearity its value is 1 + i times the real path's;
the kernel, rank and solutions of a real matrix are those of 1 + i times
it.  Spies show that a real input builds no imaginary layer or row, and
that a complex one still does.
"""

from math import lcm

import pytest
from hypothesis import given, strategies as st

from conftest import phase_rep, qi_matrices, real_scalars, unvalidated_rep
from schurmann import (
    Element,
    GaussianMatrix,
    QMatrix,
    QVector,
    Qi,
    ZERO,
    build_presentation,
    counit_rep,
    kernel_basis,
    letters,
    rank,
    rational,
    solve,
    solve_cocycles,
)
from schurmann import linalg, words
from schurmann.algebra import word_set
from schurmann.linalg import _numerators
from schurmann.representation import rep_values

ONE_PLUS_I = Qi(1, 1)


@pytest.fixture(scope="module")
def su_q2():
    return build_presentation("su_q", 2, q=rational("1/3"))


@pytest.fixture(scope="module")
def presentations(u2, o3, su_q2):
    return [u2, o3, su_q2]


def _real_blocks(data, d, n):
    """A d x d grid of n x n rational blocks, or the counit with one such block."""
    matrices = qi_matrices(n, entries=real_scalars)
    if data.draw(st.booleans()):
        return [[data.draw(matrices) for _ in range(d)] for _ in range(d)]
    blocks = [[QMatrix.identity(n) if j == k else QMatrix.zero(n, n) for k in range(d)] for j in range(d)]
    blocks[data.draw(st.integers(0, d - 1))][data.draw(st.integers(0, d - 1))] = data.draw(matrices)
    return blocks


def _real_elements(data, d):
    """Up to three elements of up to three words of up to four letters, rational coefficients."""
    word = st.lists(st.sampled_from(letters(d)), max_size=4).map(tuple)
    element = st.lists(st.tuples(word, real_scalars), max_size=3).map(lambda pairs: Element(d, dict(pairs)))
    return data.draw(st.lists(element, min_size=1, max_size=3)) + [Element.one(d)]


def _scaled_columns(m: GaussianMatrix, c: Qi) -> list:
    return [[c * z for z in m.column(e)] for e in range(m.cols)]


def _columns(m: GaussianMatrix) -> list:
    return [m.column(e) for e in range(m.cols)]


@given(st.data())
def test_word_set_values_at_1_plus_i_times_real_inputs(presentations, data):
    # eta: the relations and drawn real elements on 1 to 3 columns of real
    # letter values, against the same at (1 + i) x; rho: real elements
    # against (1 + i) times them
    for pres in presentations:
        d, n = pres.d, data.draw(st.integers(1, 2))
        rep = unvalidated_rep(pres, _real_blocks(data, d, n), n)
        assert rep.action.real
        elements = _real_elements(data, d)
        width = data.draw(st.integers(1, 3))
        column = st.lists(real_scalars, min_size=2 * d * d * n, max_size=2 * d * d * n)
        vectors = [data.draw(column) for _ in range(width)]
        scaled = [[ONE_PLUS_I * z for z in vec] for vec in vectors]
        for ws in (pres.relation_words, word_set(d, elements)):
            real = words.word_set_values(ws, rep.action, n, words.columns(vectors), width)
            gaussian = words.word_set_values(ws, rep.action, n, words.columns(scaled), width)
            assert not any(map(any, real.im))
            assert _columns(gaussian) == _scaled_columns(real, ONE_PLUS_I)
        want = [m.scale(ONE_PLUS_I) for m in rep_values(rep, elements)]
        assert rep_values(rep, [a.scale(ONE_PLUS_I) for a in elements]) == want


def _real_matrix(data):
    """A random or rank-deficient rational r x c matrix, 0 <= r, c <= 5."""
    r, c = data.draw(st.integers(0, 5)), data.draw(st.integers(0, 5))
    entries = st.one_of(st.just(ZERO), real_scalars)

    def grid(rows, cols):
        row = st.lists(entries, min_size=cols, max_size=cols)
        return QMatrix(data.draw(st.lists(row, min_size=rows, max_size=rows)), cols=cols)

    if data.draw(st.booleans()):
        return grid(r, c)
    k = data.draw(st.integers(0, max(min(r, c) - 1, 0)))
    return grid(r, k) @ grid(k, c)


@given(st.data())
def test_kernel_rank_and_solve_of_a_real_matrix_match_1_plus_i_times_it(data):
    m = _real_matrix(data)
    scaled = m.scale(ONE_PLUS_I)
    assert kernel_basis(m) == kernel_basis(scaled)
    den = lcm(*(z.den for row in m.data for z in row))
    gaussian = GaussianMatrix(*_numerators(m.data), den, m.cols)
    assert kernel_basis(gaussian) == kernel_basis(m)
    assert rank(m) == rank(scaled)
    b = QVector(data.draw(st.lists(real_scalars, min_size=m.rows, max_size=m.rows)))
    assert solve(m, b) == solve(scaled, b.scale(ONE_PLUS_I))
    # a consistent system: b = m x
    x = QVector(data.draw(st.lists(real_scalars, min_size=m.cols, max_size=m.cols)))
    b = QVector(sum((a * y for a, y in zip(row, x)), ZERO) for row in m.data)
    assert solve(m, b) == solve(scaled, b.scale(ONE_PLUS_I)) is not None


@pytest.fixture
def spies(monkeypatch):
    """The imaginary halves that `words.layer_step` and `linalg._row_step`
    return, and the imaginary rows `linalg._primitive_rows` keeps."""
    seen = {"layer": [], "row": [], "primitive": []}
    for module, name, key in (
        (words, "layer_step", "layer"),
        (linalg, "_row_step", "row"),
        (linalg, "_primitive_rows", "primitive"),
    ):

        def spy(*args, _f=getattr(module, name), _key=key):
            out = _f(*args)
            seen[_key] += [im for _, im in out] if _key == "primitive" else [out[1]]
            return out

        monkeypatch.setattr(module, name, spy)
    return seen


def test_a_real_input_builds_no_imaginary_layer_or_row(spies):
    # the counit's validation on fresh presentations and its cocycle space
    # (the units pass, the kernel and the basis check): every layer and row
    # is real
    for kind, d, params in (("u_plus", 2, {}), ("o_plus", 3, {}), ("su_q", 2, {"q": "1/3"})):
        pres = build_presentation(kind, d, **params)
        for n in (1, 2):
            assert solve_cocycles(counit_rep(pres, n)).dimension
    assert spies["layer"] and spies["row"] and spies["primitive"]
    assert all(im is None for part in spies.values() for im in part)


def test_a_complex_input_still_builds_its_imaginary_half(u2, spies):
    # diag(i, 1) on C^2: the layers and the rows of its cocycle space carry
    # an imaginary part, and a layer step refuses to take x as real under it
    rep = phase_rep(u2)
    solve_cocycles(rep)
    assert any(im is not None for im in spies["layer"])
    assert any(im is not None for im in spies["primitive"])
    with pytest.raises(ValueError, match="real rho"):
        words.layer_step(rep.action, [0], [[1], [0]], None, (), None, None, 1)
