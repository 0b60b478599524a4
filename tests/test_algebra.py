"""Free *-algebra elements, the counit, the antipode and the presentations."""

import hashlib
from math import lcm

import pytest
from hypothesis import given, strategies as st

from conftest import oracle_presentation, oracle_star, oracle_star_close, qi_scalars
from schurmann import algebra
from schurmann.algebra import (
    MAX_TABLE_ENTRIES,
    PRESENTATION_KINDS,
    WordSet,
    letter_table,
    relation_terms,
    word_set,
)
from schurmann.cohomology import KPairCocycle, _letter_sums
from schurmann.errors import InputError
from schurmann import (
    Element,
    Letter,
    ONE,
    QMatrix,
    Qi,
    ZERO,
    antipode_element,
    build_presentation,
    counit,
    format_word,
    letters,
    rational,
    words_up_to,
)

letters_d2 = st.sampled_from(letters(2))
words_d2 = st.lists(letters_d2, max_size=3).map(tuple)
elements_d2 = st.lists(
    st.tuples(words_d2, qi_scalars), min_size=1, max_size=3
).map(lambda pairs: Element(2, dict(pairs)))


def test_letter_adjoint():
    l = Letter(1, 2, False)
    assert l.adjoint() == Letter(1, 2, True)
    assert l.adjoint().adjoint() == l


def test_format_word():
    w = (Letter(1, 2, False), Letter(2, 1, True))
    assert format_word(w) == "u[1,2]·u*[2,1]"
    assert format_word(()) == "1"


def test_element_repr():
    a = Element.generator(2, 1, 2) + Element.from_word(
        2, (Letter(1, 2, False), Letter(2, 1, True))
    )
    assert repr(a) == "(1)·u[1,2] + (1)·u[1,2]·u*[2,1]"


def test_zero_coefficients_dropped():
    a = Element(2, {(Letter(1, 1, False),): ZERO})
    assert a.is_zero()
    assert Element.generator(2, 1, 1) - Element.generator(2, 1, 1) == Element.zero(2)


def test_out_of_range_letter_rejected():
    with pytest.raises(ValueError):
        Element.from_word(2, (Letter(3, 1, False),))


@given(elements_d2, elements_d2, elements_d2)
def test_ring_structure(a, b, c):
    assert a * (b * c) == (a * b) * c
    assert a * (b + c) == a * b + a * c
    one = Element.one(2)
    assert one * a == a
    assert a * one == a


@given(elements_d2, elements_d2)
def test_star_is_antimultiplicative_involution(a, b):
    assert (a * b).star() == b.star() * a.star()
    assert a.star().star() == a
    assert a.star() == oracle_star(a)


@given(elements_d2, elements_d2)
def test_counit_is_multiplicative(a, b):
    assert counit(a * b) == counit(a) * counit(b)
    assert counit(a + b) == counit(a) + counit(b)
    assert counit(a.star()) == counit(a).conj()


def test_counit_on_letters():
    assert counit(Element.generator(2, 1, 1)) == ONE
    assert counit(Element.generator(2, 1, 2)) == ZERO
    assert counit(Element.one(2)) == ONE


@given(elements_d2)
def test_antipode_flips_indices(a):
    # S(u[j,k]) = u*[k,j] extended antimultiplicatively, so S is involutive
    assert antipode_element(antipode_element(a)) == a
    assert counit(antipode_element(a)) == counit(a)


def test_antipode_on_generator():
    a = Element.generator(2, 1, 2)
    assert antipode_element(a) == Element.generator(2, 2, 1, star=True)


def test_words_up_to_counts():
    # alphabet of 2 d^2 letters; 1 + 8 + 64 words up to length 2 at d = 2
    assert sum(1 for _ in words_up_to(2, 2)) == 73
    assert sum(1 for _ in words_up_to(2, 1)) == 9
    assert sum(1 for _ in words_up_to(3, 1, starred=False)) == 10


def test_presentation_relation_counts():
    # unitarity of u and ubar: 2 * 2 * d^2 labeled entries at d = 2
    u2 = build_presentation("u_plus", 2)
    assert u2.kind == "u_plus"
    assert u2.kac
    assert len(u2.relations) == 16
    o2 = build_presentation("o_plus", 2)
    assert any(lbl.startswith("sym") for lbl, _ in o2.relations)
    k2 = build_presentation("k_d", 2)
    assert len(k2.relations) == 8


def test_presentation_relations_are_star_closed():
    u2 = build_presentation("u_plus", 2)
    rels = {r for _, r in u2.relations}
    for r in rels:
        assert r.star() in rels


def _paired_form(d):
    """F = [[0, 1/2], [2, 0]] on each pair of coordinates, and 1 on the last
    one when d is odd: F conj(F) = I.  At d = 2 it is the form of the h1
    benchmark workload."""
    F = [[ZERO] * d for _ in range(d)]
    for j in range(0, d - 1, 2):
        F[j][j + 1], F[j + 1][j] = Qi(rational("1/2")), Qi(2)
    if d % 2:
        F[d - 1][d - 1] = ONE
    return QMatrix(F, cols=d)


STAR_CASES = (
    [(kind, d, {}) for kind in ("k_d", "u_plus", "o_plus") for d in (1, 2, 3, 4)]
    + [("u_q", d, {"q_diag": list(range(1, d + 1))}) for d in (1, 2, 3, 4)]
    + [("u_q", d, {"q_diag": [1] * (d - 1) + [2]}) for d in (2, 3, 4)]
    + [("o_f", d, {"F": _paired_form(d)}) for d in (1, 2, 3, 4)]
    + [("su_q", d, {"q": "1/2"}) for d in (1, 2, 3)]
    # o_f with a Kac form, a non-Kac form without zero entries and a form
    # with F conj(F) = -I; su_q at another q
    + [("o_f", d, {"F": QMatrix.identity(d)}) for d in (2, 3, 4)]
    + [("o_f", 2, {"F": QMatrix([[Qi(2), Qi(3)], [Qi(-1), Qi(-2)]])})]
    + [("o_f", 2, {"F": QMatrix([[ZERO, ONE], [-ONE, ZERO]])})]
    + [("su_q", 3, {"q": "2/3"})]
)


@pytest.mark.parametrize(
    "kind, d, kwargs", STAR_CASES, ids=[f"{k}{d}-{i}" for i, (k, d, _) in enumerate(STAR_CASES)]
)
def test_star_closure_matches_the_former_construction(kind, d, kwargs):
    # the un-starred relations come first and no family label ends in "*"
    p = build_presentation(kind, d, **kwargs)
    base = [(lbl, r) for lbl, r in p.relations if not lbl.endswith("*")]
    expected = oracle_star_close(base)
    assert [lbl for lbl, _ in p.relations] == [lbl for lbl, _ in expected]
    assert [r for _, r in p.relations] == [r for _, r in expected]
    for _, r in p.relations:
        s = r.star()
        assert s == oracle_star(r) and hash(s) == hash(oracle_star(r))
        assert all(type(l) is Letter for w in s.terms for l in w)
        assert s.star() == r


@pytest.mark.parametrize(
    "kind, d, kwargs", STAR_CASES, ids=[f"{k}{d}-{i}" for i, (k, d, _) in enumerate(STAR_CASES)]
)
def test_every_kind_carries_the_unitarity_relations(kind, d, kwargs):
    # the premise of `cocycle_from_V`: uu* = u*u = 1 entrywise on every kind
    rels = dict(build_presentation(kind, d, **kwargs).relations)
    r = range(1, d + 1)
    for j in r:
        for k in r:
            delta = Element.one(d) if j == k else Element.zero(d)
            row = sum((Element.from_word(d, (Letter(j, p, False), Letter(k, p, True))) for p in r), -delta)
            col = sum((Element.from_word(d, (Letter(p, j, True), Letter(p, k, False))) for p in r), -delta)
            assert rels[f"uu*({j},{k})"] == row
            assert rels[f"u*u({j},{k})"] == col


def test_build_presentation_validates():
    with pytest.raises(ValueError):
        build_presentation("nope", 2)
    with pytest.raises(ValueError):
        build_presentation("u_plus", 0)
    with pytest.raises(ValueError):
        build_presentation("u_q", 2, q_diag=[rational(1)])
    with pytest.raises(ValueError):
        build_presentation("su_q", 2, q=rational(0))


def test_su_q_twisted_determinant_relation_present():
    p = build_presentation("su_q", 2, q=rational("1/2"))
    assert p.kind == "su_q"
    assert not p.kac
    labels = [lbl for lbl, _ in p.relations]
    assert any("det" in lbl for lbl in labels)


# sha256 of the lines "label: relation" (labels, their order, and every term
# with its exact coefficient), pinned from the separate per-family builders
# the catalogue had before they were folded into one
RELATION_DIGESTS = {
    "k_d": (8, "ca7e2a9d162dde5f3a6ea201aedc7d16049060517c4fc4abd4f7705a4a776699"),
    "u_plus": (16, "f818e1452684f221a1ea5668dfa1898215780013950aceefef7ad2fb2f87a996"),
    "u_q": (20, "6dca616fbab260ee67a55b9772693c88186f014d5997c4ec29692f2afceb91f7"),
    "o_plus": (24, "601621111af40606a6967bc55f18a44bd4a729a2872d171fac3601e66b9549ce"),
    "o_f": (16, "87ddacefc5fbf2037fd4edbc08fdd6042bc8787cdb2ced62252b99b8467d4da2"),
    "su_q": (60, "fb5f2923cfc5445b7ea37b8a2cf723b210d92bcb78518d045c50e409dbee93b3"),
}

RELATION_CASES = {
    "k_d": dict(d=2),
    "u_plus": dict(d=2),
    "u_q": dict(d=2, q_diag=[rational("1/2"), rational(3)]),
    "o_plus": dict(d=2),
    "o_f": dict(d=2, F=QMatrix([[ZERO, Qi(2)], [Qi(rational("1/2")), ZERO]])),
    "su_q": dict(d=3, q=rational("1/3")),
}


@pytest.mark.parametrize("kind", sorted(RELATION_DIGESTS))
def test_relation_lists_pinned(kind):
    p = build_presentation(kind, **RELATION_CASES[kind])
    text = "\n".join(f"{lbl}: {r!r}" for lbl, r in p.relations)
    assert (len(p.relations), hashlib.sha256(text.encode()).hexdigest()) == RELATION_DIGESTS[kind]



@pytest.mark.parametrize("kind", sorted(RELATION_CASES))
def test_relation_terms_bound_the_built_presentations(kind):
    # counted before the star closure, which at most doubles the terms;
    # exact for the kinds the closure adds nothing to
    for d in (1, 2, 3):
        case = dict(RELATION_CASES[kind], d=d)
        if kind == "u_q":
            case["q_diag"] = [rational(f"{k + 1}/2") for k in range(d)]
        if kind == "o_f":
            case["F"] = QMatrix.identity(d)
        terms = sum(len(r.terms) for _, r in build_presentation(kind, **case).relations)
        assert terms <= 2 * relation_terms(kind, d)
        if kind in ("k_d", "u_plus"):
            assert terms == relation_terms(kind, d)
        if kind == "o_plus":
            assert terms == relation_terms(kind, d) + 2 * d * d
    assert relation_terms("u_plus", 40) == 256160


@pytest.fixture
def builders_fail(monkeypatch):
    for name in ("_quadratic_relations", "_symmetry_relations", "_form_relations",
                 "_determinant_relations", "_star_close"):
        monkeypatch.setattr(algebra, name, lambda *a, **k: pytest.fail("built"))


@pytest.mark.parametrize("d", [1000, 10**9])
@pytest.mark.parametrize("kind", PRESENTATION_KINDS)
def test_presentation_budget_refused_before_build(builders_fail, kind, d):
    with pytest.raises(InputError, match="above the table budget MAX_TABLE_ENTRIES"):
        build_presentation(kind, d)


def test_presentation_budget_boundary(builders_fail):
    assert relation_terms("u_plus", 63) <= MAX_TABLE_ENTRIES < relation_terms("u_plus", 64)
    with pytest.raises(InputError, match="u_plus at d = 64: the relations would hold 1048832 terms"):
        build_presentation("u_plus", 64)


def test_word_set_is_suffix_closed_and_layered():
    a, b, c = Letter(1, 1, False), Letter(1, 2, False), Letter(2, 1, True)
    x = Element(2, {(a, b, c): ONE, (b, c): Qi(2), (): -ONE})
    y = Element(2, {(c, b): Qi(0, 1)})
    ws = word_set(2, [x, y])
    # S = {1; c, b; b c, c b; a b c}, layers sorted by head letter, then tail
    assert ws.sizes == (1, 2, 2, 1)
    index = {l: i for i, l in enumerate(letters(2))}
    # words numbered through S: 1 -> 0, b -> 1, c -> 2, b c -> 3, c b -> 4, a b c -> 5;
    # per layer the head letters, the numbers of the tails and the positions
    # whose tail has counit 1
    assert ws.layers[0] == ([index[b], index[c]], [0, 0], [0, 1])
    assert ws.layers[1] == ([index[b], index[c]], [2, 1], [])
    assert ws.layers[2] == ([index[a]], [3], [])
    assert ws.at == [5, 3, 0, 4]
    assert ws.lengths == [3, 2, 0, 2]
    assert (ws.starts, ws.ends) == ([0, 3], [3, 4])
    assert (ws.re, ws.im, ws.den) == ([1, 2, -1, 0], [0, 0, 0, 1], 1)
    # every coefficient over one denominator, the lcm of theirs: 1/2 and i/3 over 6
    halves, thirds = Qi(rational("1/2")), Qi(0, rational("1/3"))
    ws = word_set(2, [Element(2, {(a,): halves}), Element(2, {(b,): thirds})])
    assert (ws.re, ws.im, ws.den) == ([3, 0], [0, 2], 6)


@pytest.mark.parametrize(
    "kind, d, kwargs", STAR_CASES, ids=[f"{k}{d}-{i}" for i, (k, d, _) in enumerate(STAR_CASES)]
)
def test_the_catalogue_matches_the_plain_builders(kind, d, kwargs):
    p = build_presentation(kind, d, **kwargs)
    expected = oracle_presentation(kind, d, **kwargs)
    assert [lbl for lbl, _ in p.relations] == [lbl for lbl, _ in expected]
    for (lbl, r), (_, e) in zip(p.relations, expected):
        # the words, their exact coefficients and the order they were inserted in
        assert r.d == d and list(r.terms.items()) == list(e.terms.items()), lbl


def _brute_force_word_set(d, elements):
    """The word set by its definition: every suffix of every word, numbered
    layer by layer in (head position, tail number) order."""
    alpha = letters(d)
    items = [t for a in elements for t in a.terms.items()]
    closure = {()} | {w[k:] for w, _ in items for k in range(len(w))}
    number, layers, sizes = {(): 0}, [], [1]
    for m in range(1, max(map(len, closure)) + 1):
        layer = sorted((w for w in closure if len(w) == m), key=lambda w: (alpha.index(w[0]), number[w[1:]]))
        for w in layer:
            number[w] = len(number)
        heads = [alpha.index(w[0]) for w in layer]
        tails = [number[w[1:]] for w in layer]
        eps = [i for i, w in enumerate(layer) if all(l.row == l.col for l in w[1:])]
        layers.append((heads, tails, eps))
        sizes.append(len(layer))
    den = lcm(*(c.den for _, c in items))
    ends = [sum(len(a.terms) for a in elements[: e + 1]) for e in range(len(elements))]
    return WordSet(
        tuple(layers),
        tuple(sizes),
        [int(c.re * den) for _, c in items],
        [int(c.im * den) for _, c in items],
        [number[w] for w, _ in items],
        [len(w) for w, _ in items],
        [0] + ends[:-1],
        ends,
        den,
    )


@given(st.data())
def test_word_set_matches_the_brute_force_closure(data):
    d = data.draw(st.integers(1, 3))
    alpha = letters(d)
    drawn = data.draw(st.lists(st.lists(st.sampled_from(alpha), max_size=4).map(tuple), min_size=1, max_size=4))
    # the drawn words, their suffixes and each word with its head replaced:
    # elements drawn from them repeat words and share suffixes
    pool = [w[k:] for w in drawn for k in range(len(w) + 1)] + [(l,) + w[1:] for w in drawn if w for l in alpha[:3]]
    element = st.lists(st.tuples(st.sampled_from(pool), qi_scalars), max_size=5).map(
        lambda pairs: Element(d, dict(pairs))
    )
    elements = data.draw(st.lists(element, min_size=1, max_size=4))
    assert word_set(d, elements) == _brute_force_word_set(d, elements)


def test_the_letter_table():
    for d in (1, 2, 3):
        table, r = letter_table(d), range(1, d + 1)
        assert table.letters == tuple(Letter(j, k, s) for s in (False, True) for j in r for k in r)
        for h, l in enumerate(table.letters):
            assert table.grid[l.star][l.row - 1][l.col - 1] is l
            assert table.index[l] == h and table.diagonal[h] == (l.row == l.col)
            assert table.adjoint[l] == l.adjoint() and table.adjoint[table.adjoint[l]] is l
        assert letters(d, starred=False) == list(table.letters[: d * d])
    # letters hands out a fresh list: changing it leaves the table as it is
    alpha = letters(2)
    alpha.reverse()
    alpha.append(None)
    assert letters(2) == list(letter_table(2).letters) == [Letter(j, k, s) for s in (False, True) for j in (1, 2) for k in (1, 2)]


HOT_PATH_KINDS = [
    ("k_d", {}),
    ("u_plus", {}),
    ("u_q", {"q_diag": [1, 2, 3]}),
    ("o_plus", {}),
    ("o_f", {"F": _paired_form(3)}),
    ("su_q", {"q": "1/2"}),
]
LETTER_PATTERNS = ("u*[p,j] u[p,k]", "u*[k,p] u[j,p]", "u[j,p] u*[k,p]", "u[p,j] u[p,k]", "u[j,p] u[k,p]")


def test_the_hot_path_builds_no_letter(monkeypatch, eta_sym_u2, eta_rot_o3):
    pairings = [KPairCocycle(eta, eta) for eta in (eta_sym_u2, eta_rot_o3)]
    # a first build fills the per-d letter tables
    for kind, kwargs in HOT_PATH_KINDS:
        build_presentation(kind, 3, **kwargs)
    sums = [_letter_sums(c, *LETTER_PATTERNS) for c in pairings]
    built, new = [], Letter.__new__
    monkeypatch.setattr(Letter, "__new__", lambda cls, *args: built.append(args) or new(cls, *args))
    for kind, kwargs in HOT_PATH_KINDS:
        p = build_presentation(kind, 3, **kwargs)
        word_set(3, [r for _, r in p.relations])
        assert built == [], kind
    assert [_letter_sums(c, *LETTER_PATTERNS) for c in pairings] == sums
    assert built == []
    # the spy sees a letter that is built
    assert Letter(1, 2, True).star and built == [(1, 2, True)]
