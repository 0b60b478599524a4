"""Shared fixtures and hypothesis strategies for the suite."""

import sys
from itertools import product

import pytest
from hypothesis import Phase, settings, strategies as st

from schurmann import (
    Element,
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
    representation,
)
from schurmann import cocycle
from schurmann.cocycle import Cocycle
from schurmann.cohomology import (
    CoboundaryCocycle,
    CombinationCocycle,
    CounitFunctional,
    KPairCocycle,
)
from schurmann.functional import Functional
from schurmann.linalg import inner_product
from schurmann.representation import Representation

settings.register_profile("suite", max_examples=30, deadline=None)
# `pytest --hypothesis-profile=triage`: the same examples on every run and no
# shrinking, so a failing differential test reports its first failing
# example at once instead of shrinking it for minutes
settings.register_profile(
    "triage",
    settings.get_profile("suite"),
    derandomize=True,
    phases=[p for p in Phase if p is not Phase.shrink],
)
settings.load_profile("suite")


def q(text):
    """Shorthand: q('1/2') or q('1/2', '-3') for a Q(i) scalar."""
    if isinstance(text, tuple):
        return Qi(rational(text[0]), rational(text[1]))
    return Qi(rational(text))


# every p/q with q <= 3 and |p/q| <= 4, sampled from a list rather than
# drawn digit by digit (much cheaper per draw); 0 first, so shrinking goes to 0
small_rationals = st.sampled_from(
    sorted(
        {rational(f"{p}/{q}") for q in (1, 2, 3) for p in range(-4 * q, 4 * q + 1)},
        key=lambda f: (f.denominator, abs(f), f < 0),
    )
)

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


@pytest.fixture(scope="session")
def every_kind():
    """One presentation of every kind at d = 2, and su_q at d = 3 for its
    determinant words of three letters."""
    F = QMatrix([[ZERO, Qi(rational("1/2"))], [Qi(2), ZERO]])
    return [
        build_presentation("k_d", 2),
        build_presentation("u_plus", 2),
        build_presentation("u_q", 2, q_diag=[rational("1/2"), rational(3)]),
        build_presentation("o_plus", 2),
        build_presentation("o_f", 2, F=F),
        build_presentation("su_q", 2, q=rational("1/3")),
        build_presentation("su_q", 3, q=rational("1/2")),
    ]


def unvalidated_rep(presentation, blocks, n):
    """A Representation on the grid as given, no relation checked."""
    grid = tuple(tuple(row) for row in blocks)
    star = tuple(tuple(m.adjoint() for m in row) for row in grid)
    return Representation(presentation, n, grid, star)


def unvalidated_cocycle(rep, V, W):
    """A Cocycle on the grids as given, no relation checked."""
    return Cocycle(rep, tuple(tuple(row) for row in V), tuple(tuple(row) for row in W))


def flat_cocycle(rep, values):
    """The unvalidated cocycle with eta(letter h)_k = values[h * n + k]."""
    d, n = rep.d, rep.n
    grids = [
        [[QVector(values[((s * d + j) * d + k) * n :][:n]) for k in range(d)] for j in range(d)]
        for s in range(2)
    ]
    return unvalidated_cocycle(rep, *grids)


def cycle_rep(presentation):
    """rho(u[j,k]) = 1 when k = j + 1 mod d, else 0, on C^1: the 3-cycle
    permutation at d = 3, a block matrix that is neither symmetric in (j, k)
    nor self-adjoint."""
    d = presentation.d
    blocks = [[QMatrix([[ONE if k == (j + 1) % d else ZERO]]) for k in range(d)] for j in range(d)]
    return representation(presentation, blocks, 1)


def phase_rep(presentation):
    """rho(u[j,k]) = delta_jk diag(i, 1) on C^2, whose blocks are not self-adjoint."""
    d = presentation.d
    diag, zero = QMatrix([[I, ZERO], [ZERO, ONE]]), QMatrix.zero(2, 2)
    return representation(presentation, [[diag if j == k else zero for k in range(d)] for j in range(d)], 2)


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


# -- the former star closure: the oracle for Element.star and _star_close -----


def oracle_star(a):
    """a* through the validating constructor: reverse words, adjoint letters,
    conjugate coefficients."""
    return Element(
        a.d,
        {tuple(l.adjoint() for l in reversed(w)): c.conj() for w, c in a.terms.items()},
    )


def oracle_star_close(rels):
    """rels, then the star of each relation not yet present, labelled label*,
    present tested on whole elements."""
    present = {r for _, r in rels}
    out = list(rels)
    for lbl, r in rels:
        rs = oracle_star(r)
        if rs not in present:
            out.append((f"{lbl}*", rs))
            present.add(rs)
    return tuple(out)


# -- the plain recursions: the oracle for the word-set evaluator ---------------


def rho_word(rep, w, memo):
    """rho(h w) = rho(h) rho(w), rho(1) = id; memo maps words to matrices."""
    m = memo.get(w)
    if m is None:
        m = QMatrix.identity(rep.n) if not w else rep.image(*w[0]) @ rho_word(rep, w[1:], memo)
        memo[w] = m
    return m


def eta_word(eta, w, memo):
    """eta(h w) = rho(h) eta(w) + eps(w) eta(h), eta(1) = 0; memo maps words to vectors."""
    v = memo.get(w)
    if v is None:
        if not w:
            v = QVector.zero(eta.n)
        else:
            head, tail = w[0], w[1:]
            v = eta.rep.image(*head).apply(eta_word(eta, tail, memo))
            if all(l.row == l.col for l in tail):
                v = v + eta.letter_value(head)
        memo[w] = v
    return v


def oracle_rep(rep, a, memo=None):
    """rho(a) by the recursion, term by term."""
    memo = {} if memo is None else memo
    out = QMatrix.zero(rep.n, rep.n)
    for w, c in a.terms.items():
        out = out + rho_word(rep, w, memo).scale(c)
    return out


def oracle_cocycle(eta, a, memo=None):
    """eta(a) by the recursion, term by term."""
    memo = {} if memo is None else memo
    out = QVector.zero(eta.n)
    for w, c in a.terms.items():
        out = out + eta_word(eta, w, memo).scale(c)
    return out


def _diagonal(w):
    return all(l.row == l.col for l in w)


def oracle_pair(c, wa, wb, memo=None):
    """c(wa, wb) by the per-word formula of each 2-cocycle kind; memo maps
    (object id, word) to eta and functional values."""
    memo = {} if memo is None else memo
    if isinstance(c, KPairCocycle):
        star = tuple(l.adjoint() for l in reversed(wa))
        left = eta_word(c.eta1, star, memo.setdefault(("eta", id(c.eta1)), {}))
        return inner_product(left, eta_word(c.eta2, wb, memo.setdefault(("eta", id(c.eta2)), {})))
    if isinstance(c, CoboundaryCocycle):
        v = -oracle_functional(c.phi, wa + wb, memo)
        if _diagonal(wa):
            v = v + oracle_functional(c.phi, wb, memo)
        if _diagonal(wb):
            v = v + oracle_functional(c.phi, wa, memo)
        return v
    if isinstance(c, CombinationCocycle):
        return sum((coeff * oracle_pair(t, wa, wb, memo) for coeff, t in c.terms), ZERO)
    raise TypeError(type(c).__name__)


def oracle_functional(phi, w, memo=None):
    """v(h w) = sign c(h, w) + [h diagonal] v(w) + eps(w) v(h), v(1) = 0, by
    recursion once per letter; the counit is eps(w)."""
    memo = {} if memo is None else memo
    if isinstance(phi, CounitFunctional):
        return ONE if _diagonal(w) else ZERO
    key = ("value", id(phi), w)
    v = memo.get(key)
    if v is None:
        v = ZERO
        if w:
            head, tail = w[0], w[1:]
            v = oracle_pair(phi.form, (head,), tail, memo)
            if phi.sign < 0:
                v = -v
            if head.row == head.col:
                v = v + oracle_functional(phi, tail, memo)
            if _diagonal(tail):
                v = v + phi.letter_value(head)
        memo[key] = v
    return v


def oracle_violations(obj, evaluate):
    """The (label, value) list of the relations where evaluate(obj, r) is nonzero."""
    memo = {}
    return [
        (lbl, val)
        for lbl, r in obj.presentation.relations
        if not (val := evaluate(obj, r, memo)).is_zero()
    ]


def refuse_evaluation(monkeypatch):
    """Make evaluating a word set fail the test, under every name the package calls it by."""
    evaluated = lambda *args, **kwargs: pytest.fail("evaluated")
    for module in ("schurmann.words", "schurmann.representation", "schurmann.cocycle"):
        monkeypatch.setattr(sys.modules[module], "word_set_values", evaluated)


def refuse_elimination(monkeypatch):
    """Make building the cocycle coefficient rows (the word-set evaluator of
    `solve_cocycles`) or eliminating the matrix fail the test."""
    built = lambda *args, **kwargs: pytest.fail("built")
    monkeypatch.setattr(cocycle, "word_set_values", built)
    monkeypatch.setattr(cocycle, "kernel_basis", built)


def without_deep_recursion(fn, *args, depth=60):
    """fn(*args) with the recursion limit `depth` frames above the caller, so
    a recursion once per letter of a long word raises RecursionError."""
    frame, used = sys._getframe(), 0
    while frame is not None:
        frame, used = frame.f_back, used + 1
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(used + depth)
    try:
        return fn(*args)
    finally:
        sys.setrecursionlimit(limit)


def drawn_elements(data, d, count=4, max_len=4):
    """Up to count elements of up to three words of up to max_len letters."""
    word = st.lists(st.sampled_from(letters(d)), max_size=max_len).map(tuple)
    element = st.lists(st.tuples(word, qi_scalars), max_size=3).map(
        lambda pairs: Element(d, dict(pairs))
    )
    return data.draw(st.lists(element, min_size=1, max_size=count))


def drawn_blocks(data, d, n):
    """A random grid of n x n blocks, or the counit with one block changed."""
    if data.draw(st.booleans()):
        return [[data.draw(qi_matrices(n)) for _ in range(d)] for _ in range(d)]
    blocks = [[QMatrix.identity(n) if j == k else QMatrix.zero(n, n) for k in range(d)] for j in range(d)]
    j, k = data.draw(st.integers(0, d - 1)), data.draw(st.integers(0, d - 1))
    blocks[j][k] = data.draw(qi_matrices(n))
    return blocks


def drawn_words(data, d, count=6):
    alpha = letters(d)
    word = st.lists(st.sampled_from(alpha), max_size=3).map(tuple)
    return data.draw(st.lists(word, min_size=1, max_size=count))


# -- the plain sweeps: the oracles for the letter-triple and primitive checks --


def oracle_square_zero_on_letters(c):
    """The first (a, b, x, value) of the degree-2 identity over the letter
    triples in code order of a b x, or None: eps(a) c(b, x) - c(a b, x) +
    c(a, b x) - c(a, b) eps(x), every c by the per-word formula of its kind
    (`oracle_pair`)."""
    alpha, memo = letters(c.d), {}
    pair = lambda u, v: oracle_pair(c, u, v, memo)
    for a, b, x in product(alpha, repeat=3):
        value = pair((a,), (b, x)) - pair((a, b), (x,))
        if _diagonal((a,)):
            value = value + pair((b,), (x,))
        if _diagonal((x,)):
            value = value - pair((a,), (b,))
        if not value.is_zero():
            return (a, b, x, value)
    return None


def oracle_verify_primitive_exhaustive(phi, max_len):
    """(pairs checked, first violating (a, b, d(phi)(a, b), c(a, b)) or None)
    over every word pair in (length, code) order of a, then of b, both sides
    by the per-word formulas (`oracle_pair`; d(phi) reads phi through
    `oracle_functional`)."""
    words = [w for m in range(max_len + 1) for w in product(letters(phi.d), repeat=m)]
    c, d_phi, memo = phi.two_cocycle, CoboundaryCocycle(phi), {}
    for i, (a, b) in enumerate(product(words, repeat=2)):
        got, want = oracle_pair(d_phi, a, b, memo), oracle_pair(c, a, b, memo)
        if got != want:
            return i + 1, (a, b, got, want)
    return len(words) ** 2, None
