"""Shared fixtures and hypothesis strategies for the suite."""

import pytest
from hypothesis import settings, strategies as st

from schurmann import (
    I,
    ONE,
    QMatrix,
    QVector,
    Qi,
    ZERO,
    b_matrices,
    build_presentation,
    gaussian_cocycle,
    letters,
    rational,
)
from schurmann.functional import Functional

settings.register_profile("suite", max_examples=30, deadline=None)
settings.load_profile("suite")


def q(text):
    """Shorthand: q('1/2') or q('1/2', '-3') for a Q(i) scalar."""
    if isinstance(text, tuple):
        return Qi(rational(text[0]), rational(text[1]))
    return Qi(rational(text))


small_rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=3
).map(lambda f: rational(str(f)))

qi_scalars = st.builds(Qi, small_rationals, small_rationals)

nonzero_qi = qi_scalars.filter(lambda x: not x.is_zero())


def qi_vectors(n):
    return st.lists(qi_scalars, min_size=n, max_size=n).map(QVector)


def qi_matrices(rows, cols=None):
    cols = rows if cols is None else cols
    row = st.lists(qi_scalars, min_size=cols, max_size=cols)
    return st.lists(row, min_size=rows, max_size=rows).map(QMatrix)


@pytest.fixture(scope="session")
def u2():
    return build_presentation("u_plus", 2)


@pytest.fixture(scope="session")
def o3():
    return build_presentation("o_plus", 3)


def scalar_grid(entries):
    """d x d grid of scalars -> grid of 1-dim vectors."""
    return [[QVector((x,)) for x in row] for row in entries]


@pytest.fixture(scope="session")
def eta_asym_u2(u2):
    """The V = [[1, i], [0, 1]] Gaussian cocycle; admits no gf."""
    return gaussian_cocycle(u2, scalar_grid([[ONE, I], [ZERO, ONE]]))


@pytest.fixture(scope="session")
def eta_sym_u2(u2):
    """The V = [[1, i], [i, 1]] Gaussian cocycle; admits a gf."""
    return gaussian_cocycle(u2, scalar_grid([[ONE, I], [I, ONE]]))


@pytest.fixture(scope="session")
def eta_rot_o3(o3):
    """Antisymmetric rotation cocycle on the 3-dim orthogonal presentation."""
    grid = [[ZERO] * 3 for _ in range(3)]
    grid[0][1] = ONE
    grid[1][0] = -ONE
    return gaussian_cocycle(o3, scalar_grid(grid))


def canonical_values(eta):
    """The canonical letter values, validated or not (eta_asym_u2 has no gf)."""
    values = b_matrices(eta).b_tilde.scale(Qi(rational("-1/2")))
    return Functional(eta, values, values.conj())


def drawn_words(data, d, count=6):
    alpha = letters(d)
    word = st.lists(st.sampled_from(alpha), max_size=3).map(tuple)
    return data.draw(st.lists(word, min_size=1, max_size=count))
