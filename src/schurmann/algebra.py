"""Free *-algebra on d x d matrix generators and the presentation catalogue.

Elements are finitely supported linear combinations of words in the letters
u[j,k] and u*[j,k] (1-indexed).  A presentation is a *-closed list of labelled
relation elements r with counit(r) = 0; the catalogue covers the free unitary
algebra K<d>, the universal unitary algebras U_d+ and U_Q+ (diagonal Q > 0),
the free orthogonal algebras O_d+ and O_F+ (F Fbar = +-I), and the twisted
determinant algebras SU_q(d) with 0 < q < 1.  A presentation above the
table budget is refused from d before anything is built.

The 2 d^2 letters of size d are built once per d (`letter_table`, with each
letter's position, adjoint and counit); the relation families, the star and
the word sets read their letters from it and build none.

Sparse elements compile onto the suffix closure of their words (`WordSet`),
on which `words.word_set_values` evaluates rho and eta; a presentation
compiles its relations once, on first use.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from math import factorial, lcm
from typing import Iterator, NamedTuple, Sequence

from .errors import InputError
from .linalg import QMatrix
from .scalars import ONE, ZERO, Qi, Rational, rational

# The most entries (words times carrier coordinates, Gram matrix cells or
# relation terms) one table may hold.  At about 100 bytes an entry this keeps
# one table near 100 MB; every table of the verification suite stays below a
# third of it.
MAX_TABLE_ENTRIES = 1 << 20


def require_entries(entries: int, what: str) -> None:
    """Refuse, before anything is allocated, a table above the entry budget."""
    if entries > MAX_TABLE_ENTRIES:
        raise InputError(
            f"{what} would hold {entries} entries, above the table budget "
            f"MAX_TABLE_ENTRIES = {MAX_TABLE_ENTRIES}"
        )


# The longest word evaluated on a sample, by `cocycle.is_real_cocycle` and
# by the recheck of `cohomology.verify_primitive_exhaustive`.  Evaluation
# runs layer by layer without recursion; the bound keeps a sampled word's
# numerators, which grow with its length, small.
MAX_SAMPLED_WORD_LEN = 256


def require_word_len(length: int, what: str) -> None:
    """Refuse, before anything is built, words above the word length budget."""
    if length > MAX_SAMPLED_WORD_LEN:
        raise InputError(
            f"{what} of length up to {length} are above the word length budget "
            f"MAX_SAMPLED_WORD_LEN = {MAX_SAMPLED_WORD_LEN}"
        )


class Letter(NamedTuple):
    row: int
    col: int
    star: bool

    def adjoint(self) -> "Letter":
        return Letter(self.row, self.col, not self.star)

    def __repr__(self) -> str:
        return f"u{'*' if self.star else ''}[{self.row},{self.col}]"


Word = tuple[Letter, ...]


def word_key(w: Word):
    """Length-lex canonical order, letters compared by (row, col, starred)."""
    return (len(w), tuple((l.row, l.col, l.star) for l in w))


def format_word(w: Word) -> str:
    if not w:
        return "1"
    return "·".join(repr(l) for l in w)


class Element:
    """Finitely supported word -> Q(i) map over the ambient size d."""

    __slots__ = ("d", "terms")

    def __init__(self, d: int, terms: dict[Word, Qi] | None = None):
        if d < 1:
            raise ValueError("ambient size d must be >= 1")
        clean: dict[Word, Qi] = {}
        for w, c in (terms or {}).items():
            if not c.is_zero():
                self._check_word(d, w)
                clean[w] = c
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Element is immutable")

    @staticmethod
    def _check_word(d: int, w: Word) -> None:
        for l in w:
            if not (1 <= l.row <= d and 1 <= l.col <= d):
                raise ValueError(f"letter {l!r} out of range for d={d}")

    @staticmethod
    def _unchecked(d: int, terms: dict[Word, Qi]) -> "Element":
        """The element of terms the caller knows to be nonzero and in range."""
        a = object.__new__(Element)
        object.__setattr__(a, "d", d)
        object.__setattr__(a, "terms", terms)
        return a

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero(d: int) -> "Element":
        return Element(d, {})

    @staticmethod
    def one(d: int) -> "Element":
        return Element(d, {(): ONE})

    @staticmethod
    def generator(d: int, row: int, col: int, star: bool = False) -> "Element":
        return Element(d, {(Letter(row, col, star),): ONE})

    @staticmethod
    def from_word(d: int, w: Word, coeff: Qi = ONE) -> "Element":
        return Element(d, {tuple(w): coeff})

    # -- ring structure ---------------------------------------------------

    def _same_d(self, other: "Element") -> None:
        if self.d != other.d:
            raise ValueError(f"ambient size mismatch: {self.d} vs {other.d}")

    def __add__(self, other: "Element") -> "Element":
        self._same_d(other)
        terms = dict(self.terms)
        for w, c in other.terms.items():
            terms[w] = terms.get(w, ZERO) + c
        return Element(self.d, terms)

    def __sub__(self, other: "Element") -> "Element":
        return self + (-other)

    def __neg__(self) -> "Element":
        return Element(self.d, {w: -c for w, c in self.terms.items()})

    def scale(self, c: Qi) -> "Element":
        return Element(self.d, {w: c * cw for w, cw in self.terms.items()})

    def __mul__(self, other: "Element") -> "Element":
        self._same_d(other)
        terms: dict[Word, Qi] = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 + w2
                c = c1 * c2
                terms[w] = terms.get(w, ZERO) + c
        return Element(self.d, terms)

    def star(self) -> "Element":
        """The *-involution: reverse words, star letters, conjugate coefficients.

        It maps in-range words to distinct in-range words and nonzero
        coefficients to nonzero ones, so the terms are not checked again;
        a real coefficient is its own conjugate."""
        adjoint = letter_table(self.d).adjoint.__getitem__
        terms = {tuple(map(adjoint, w[::-1])): c.conj() if c.b else c for w, c in self.terms.items()}
        return Element._unchecked(self.d, terms)

    # -- queries ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Element)
            and self.d == other.d
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.d, frozenset(self.terms.items())))

    def sorted_terms(self) -> list[tuple[Word, Qi]]:
        return sorted(self.terms.items(), key=lambda t: word_key(t[0]))

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = [f"({c!r})·{format_word(w)}" for w, c in self.sorted_terms()]
        return " + ".join(parts)


def counit(a: Element) -> Qi:
    """The character with counit(u[j,k]) = counit(u*[j,k]) = delta_jk.

    Multiplicative on words, linear on elements.
    """
    acc = ZERO
    for w, c in a.terms.items():
        if all(l.row == l.col for l in w):
            acc = acc + c
    return acc


def antipode_element(a: Element) -> Element:
    """Linear anti-homomorphism with S(u[j,k]) = u*[k,j], S(u*[j,k]) = u[k,j].

    Valid exactly on Kac presentations; the presentation object guards that.
    """
    return Element(
        a.d,
        {
            tuple(Letter(l.col, l.row, not l.star) for l in reversed(w)): c
            for w, c in a.terms.items()
        },
    )


def inversion_count(images: Sequence[int]) -> int:
    """Number of inverted pairs of a permutation given as a 1-indexed image tuple."""
    n = len(images)
    if sorted(images) != list(range(1, n + 1)):
        raise ValueError(f"not a permutation of 1..{n}: {images}")
    return sum(
        1
        for a in range(n)
        for b in range(a + 1, n)
        if images[a] > images[b]
    )


def all_permutations(d: int) -> list[tuple[int, ...]]:
    return [tuple(p) for p in itertools.permutations(range(1, d + 1))]


class LetterTable(NamedTuple):
    """The letters of size d in `letters(d)` order, u[j,k] (s = 0) or u*[j,k]
    (s = 1) at `grid[s][j - 1][k - 1]`, each letter's position and adjoint,
    and whether the letter at each position has counit 1."""

    letters: tuple[Letter, ...]
    grid: tuple
    index: dict[Letter, int]
    adjoint: dict[Letter, Letter]
    diagonal: tuple[bool, ...]


@lru_cache(maxsize=8)
def letter_table(d: int) -> LetterTable:
    """The letter table of size d, built once per d."""
    r = range(1, d + 1)
    grid = tuple(tuple(tuple(Letter(j, k, s) for k in r) for j in r) for s in (False, True))
    alpha = tuple(l for half in grid for row in half for l in row)
    adjoint = {l: grid[not l.star][l.row - 1][l.col - 1] for l in alpha}
    index = {l: h for h, l in enumerate(alpha)}
    return LetterTable(alpha, grid, index, adjoint, tuple(l.row == l.col for l in alpha))


def letters(d: int, starred: bool = True) -> list[Letter]:
    """The letters of size d, u[j,k] row by row, then (starred) u*[j,k]."""
    alpha = letter_table(d).letters
    return list(alpha if starred else alpha[: d * d])


@lru_cache(maxsize=8)
def letter_elements(d: int) -> tuple:
    """Every letter of size d as a one-letter element, in `letters` order."""
    return tuple(Element.from_word(d, (l,)) for l in letter_table(d).letters)


def words_up_to(d: int, max_len: int, starred: bool = True) -> Iterator[Word]:
    """All words over the letter alphabet, lengths 0..max_len, canonical order."""
    alpha = letters(d, starred=starred)
    for n in range(max_len + 1):
        for combo in itertools.product(alpha, repeat=n):
            yield combo


class WordSet(NamedTuple):
    """Sparse elements over the suffix closure S of their words.

    The words of S of length m form layer m (layer 0 is the empty word),
    sorted by head letter, then by the number of the tail; `sizes[m]`
    counts them, and words are numbered through S in this order.
    `layers[m - 1]` holds layer m as three flat lists: the index in
    `letters(d)` of every word's head letter, the number of every word's
    tail, and the positions in the layer of the words whose tail has counit
    1.  The terms of all elements follow one another: term t has the
    coefficient (re[t] + i im[t]) / den, den the lcm of every coefficient's
    denominator, and the word numbered at[t], of length lengths[t]; element
    e holds the terms starts[e] <= t < ends[e].
    """

    layers: tuple
    sizes: tuple
    re: list
    im: list
    at: list
    lengths: list
    starts: list
    ends: list
    den: int

    def require(self, per_word: int, what: str) -> None:
        """Refuse, before anything is evaluated, `per_word` entries on every
        word of the set above the entry budget."""
        require_entries(per_word * sum(self.sizes), what)


def word_set(d: int, elements: Sequence[Element]) -> WordSet:
    """The elements compiled onto the suffix closure of their words."""
    items = [t for a in elements for t in a.terms.items()]
    words = [w for w, _ in items]
    # a word in the closure holds its suffixes: a word adds those up to the first present
    closure = {(): None}
    for w in words:
        for k in range(len(w)):
            s = w[k:]
            if s in closure:
                break
            closure[s] = None
    by_len = [[] for _ in range(max(map(len, closure)) + 1)]
    for s in closure:
        by_len[len(s)].append(s)
    table = letter_table(d)
    index, diagonal_letter = table.index, table.diagonal
    # diagonal[number of w]: whether w has counit 1
    number, diagonal = {(): 0}, [True]
    layers, sizes = [], [1]
    for layer in by_len[1:]:
        # (head, tail) tells the words apart, so w itself is never compared
        heads, tails, layer = map(list, zip(*sorted([(index[w[0]], number[w[1:]], w) for w in layer])))
        number.update(zip(layer, range(len(diagonal), len(diagonal) + len(layer))))
        eps = [i for i, t in enumerate(tails) if diagonal[t]]
        diagonal += [diagonal[t] and diagonal_letter[h] for h, t in zip(heads, tails)]
        layers.append((heads, tails, eps))
        sizes.append(len(layer))
    den = lcm(*(c.den for _, c in items))
    re = [c.a * (den // c.den) for _, c in items]
    im = [c.b * (den // c.den) for _, c in items]
    at = list(map(number.__getitem__, words))
    lengths = list(map(len, words))
    cuts = list(itertools.accumulate((len(a.terms) for a in elements), initial=0))
    starts, ends = cuts[:-1], cuts[1:]
    return WordSet(tuple(layers), tuple(sizes), re, im, at, lengths, starts, ends, den)


PRESENTATION_KINDS = ("k_d", "u_plus", "u_q", "o_plus", "o_f", "su_q")


@dataclass(frozen=True)
class Presentation:
    """A *-closed labelled relation list over the free algebra of size d."""

    kind: str
    d: int
    relations: tuple[tuple[str, Element], ...] = field(compare=False)
    kac: bool = field(compare=False)
    q_diag: tuple[Rational, ...] | None = None
    F: QMatrix | None = None
    q: Rational | None = None

    @cached_property
    def relation_words(self) -> WordSet:
        """The relations compiled onto the suffix closure of their words, once
        per presentation and on first use."""
        return word_set(self.d, [r for _, r in self.relations])

    @cached_property
    def counit_reps(self) -> dict:
        """The validated counit representation of each carrier dimension n
        built so far (`representation.counit_rep`), kept with the
        presentation."""
        return {}

    def determinant_relations(self) -> list[tuple[str, Element]]:
        """The unstarred twisted-determinant family (empty unless kind su_q)."""
        return [(lbl, r) for lbl, r in self.relations if lbl.startswith("det(")]


# Families of quadratic relations as (label, column form, star on the first
# letter) for `_quadratic_relations`.
_UNITARITY = (("uu*", False, False), ("u*u", True, True))
_TRANSPOSE_UNITARITY = (("ubar·ut", False, True), ("ut·ubar", True, False))
_Q_WEIGHTED = (("q_row", True, False), ("q_col", False, True))


# The families build their elements unchecked: the letters come from the table
# of size d, a relation's words are distinct, and no coefficient is 0 (weights
# Q_rr / Q_cc > 0, units +-1, twists (-q)^k for q > 0, F's zero entries left out).
_MINUS_ONE = -ONE


def _quadratic_relations(d: int, families, q_diag: Sequence[Rational] | None = None):
    """sum_p w a b - delta_jk for every (j, k), the families interleaved.

    a, b are u[j,p], u[k,p] (row form) or u[p,j], u[p,k] (column form),
    with the star on a or on b; the weight w of a term is Q_rr / Q_cc for
    its starred letter u*[r,c], and 1 without q_diag.
    """
    # the weight of u*[r,c] at weights[r - 1][c - 1], each built once
    if q_diag is None:
        weights = [[ONE] * d for _ in range(d)]
    else:
        weights = [[Qi(qr / qc) for qc in q_diag] for qr in q_diag]
    # line j of u, u* and the weights: the entries [j,p] (row form) or [p,j]
    # (column form); a reads line j, b line k, the weight the starred letter's
    grid = letter_table(d).grid
    forms = []
    for label, column, star_first in families:
        lines = [list(zip(*g)) for g in (*grid, weights)] if column else [*grid, weights]
        forms.append((label, lines[star_first], lines[not star_first], lines[2], star_first))
    rels = []
    for j in range(d):
        for k in range(d):
            for label, a, b, w, star_first in forms:
                terms = dict(zip(zip(a[j], b[k]), w[j if star_first else k]))
                if j == k:
                    terms[()] = _MINUS_ONE
                rels.append((f"{label}({j + 1},{k + 1})", Element._unchecked(d, terms)))
    return rels


def _symmetry_relations(d: int) -> list[tuple[str, Element]]:
    u, u_star = letter_table(d).grid
    return [
        (f"sym({j + 1},{k + 1})", Element._unchecked(d, {(u[j][k],): ONE, (u_star[j][k],): _MINUS_ONE}))
        for j in range(d)
        for k in range(d)
    ]


def _form_relations(d: int, F: QMatrix) -> list[tuple[str, Element]]:
    # entrywise uF = F ubar, i.e. sum_p u[j,p] F[p,k] - sum_p F[j,p] u*[p,k]
    u, u_star = letter_table(d).grid
    plus, minus, r = F.data, (-F).data, range(d)
    rels = []
    for j in r:
        for k in r:
            terms = {}
            for p in r:
                if plus[p][k]:
                    terms[(u[j][p],)] = plus[p][k]
                if plus[j][p]:
                    terms[(u_star[p][k],)] = minus[j][p]
            rels.append((f"uF-Fubar({j + 1},{k + 1})", Element._unchecked(d, terms)))
    return rels


def _determinant_relations(d: int, q: Rational) -> list[tuple[str, Element]]:
    # u[s,t] at columns[t - 1][s - 1]; each permutation's twist built once
    columns, perms = list(zip(*letter_table(d).grid[0])), all_permutations(d)
    twists = [Qi((-q) ** inversion_count(perm)) for perm in perms]
    rows = [[s - 1 for s in sigma] for sigma in perms]
    rels = []
    for tau, twist in zip(perms, twists):
        lines = [columns[t - 1] for t in tau]
        terms = {tuple(map(tuple.__getitem__, lines, row)): tw for row, tw in zip(rows, twists)}
        terms[()] = -twist
        rels.append((f"det({','.join(map(str, tau))})", Element._unchecked(d, terms)))
    return rels


def _star_close(rels: list[tuple[str, Element]]) -> tuple[tuple[str, Element], ...]:
    """rels, then each star not yet present, labelled label*: looked up by
    its words, then compared on coefficients (sym(j,k)* = -sym(j,k) is new)."""
    present: dict[frozenset, list[Element]] = {}
    for _, r in rels:
        present.setdefault(frozenset(r.terms), []).append(r)
    out = list(rels)
    for lbl, r in rels:
        rs = r.star()
        same = present.setdefault(frozenset(rs.terms), [])
        if rs not in same:
            out.append((f"{lbl}*", rs))
            same.append(rs)
    return tuple(out)


def relation_terms(kind: str, d: int) -> int:
    """Terms of the relation families of a catalogue presentation, counted
    before the star closure adds at most as many again.  A quadratic family
    has d^2 relations of d terms plus the unit on the diagonal; the form
    relations of o_f are counted as if F had no zero entry."""
    quadratic = d**3 + d
    if kind == "k_d":
        return 2 * quadratic
    if kind in ("u_plus", "u_q"):
        return 4 * quadratic
    if kind == "o_plus":
        return 4 * quadratic + 2 * d * d
    if kind == "o_f":
        return 2 * quadratic + 2 * d**3
    # su_q: d! determinant relations of d! words and the unit
    return 4 * quadratic + factorial(d) * (factorial(d) + 1)


def require_relation_budget(kind: str, d: int) -> None:
    """Refuse, before anything is built, a catalogue presentation whose
    relations would hold more than MAX_TABLE_ENTRIES terms, or, for su_q,
    whose d! determinant relations of d! words would hold more than
    MAX_TABLE_ENTRIES letters, (d!)^2 d in all.  The letter count stops at
    the budget and the term count is a closed form, so a huge d costs
    nothing.  An unknown kind or a d below 1 is left to `build_presentation`
    to refuse."""
    if kind not in PRESENTATION_KINDS or d < 1:
        return
    if kind == "su_q":
        size = d
        for m in range(2, d + 1):
            size *= m * m
            if size > MAX_TABLE_ENTRIES:
                raise InputError(
                    f"su_q at d = {d}: the determinant relations would hold (d!)^2 d "
                    f"letters, above the table budget MAX_TABLE_ENTRIES = {MAX_TABLE_ENTRIES}"
                )
    terms = relation_terms(kind, d)
    if terms > MAX_TABLE_ENTRIES:
        raise InputError(
            f"{kind} at d = {d}: the relations would hold {terms} terms, "
            f"above the table budget MAX_TABLE_ENTRIES = {MAX_TABLE_ENTRIES}"
        )


def build_presentation(
    kind: str,
    d: int,
    *,
    q_diag: Sequence | None = None,
    F: QMatrix | None = None,
    q=None,
) -> Presentation:
    """Build a catalogue presentation; validates parameters exactly and
    refuses one above the table budget with InputError."""
    if kind not in PRESENTATION_KINDS:
        raise ValueError(f"unknown presentation kind {kind!r}")
    if d < 1:
        raise ValueError("d must be >= 1")
    require_relation_budget(kind, d)

    if kind == "k_d":
        rels = _quadratic_relations(d, _UNITARITY)
        return Presentation("k_d", d, _star_close(rels), kac=True)

    if kind == "u_plus":
        rels = _quadratic_relations(d, _UNITARITY) + _quadratic_relations(d, _TRANSPOSE_UNITARITY)
        return Presentation("u_plus", d, _star_close(rels), kac=True)

    if kind == "u_q":
        if q_diag is None or len(q_diag) != d:
            raise ValueError("u_q requires q_diag with d positive rational entries")
        qd = tuple(rational(x) for x in q_diag)
        if any(x <= 0 for x in qd):
            raise ValueError("q_diag entries must be positive")
        rels = _quadratic_relations(d, _UNITARITY) + _quadratic_relations(d, _Q_WEIGHTED, qd)
        return Presentation("u_q", d, _star_close(rels), kac=False, q_diag=qd)

    if kind == "o_plus":
        rels = (
            _quadratic_relations(d, _UNITARITY)
            + _quadratic_relations(d, _TRANSPOSE_UNITARITY)
            + _symmetry_relations(d)
        )
        return Presentation("o_plus", d, _star_close(rels), kac=True)

    if kind == "o_f":
        if F is None or F.shape != (d, d):
            raise ValueError("o_f requires a d x d form matrix F")
        prod = F @ F.conj()
        ident = QMatrix.identity(d)
        if prod != ident and prod != -ident:
            raise ValueError("o_f requires F·conj(F) = I or -I")
        rels = _quadratic_relations(d, _UNITARITY) + _form_relations(d, F)
        is_kac = F.adjoint() @ F == ident
        return Presentation("o_f", d, _star_close(rels), kac=is_kac, F=F)

    # su_q
    if q is None:
        raise ValueError("su_q requires the deformation parameter q")
    qr = rational(q)
    if not (0 < qr < 1):
        raise ValueError("su_q requires rational q with 0 < q < 1")
    # Q = F*F for the canonical diagonal form F_jj = q^(j-d); only the ratios
    # Q_pp/Q_kk = q^(2(p-k)) enter the relations.
    qd = tuple(qr ** (2 * (j - d)) for j in range(1, d + 1))
    rels = (
        _quadratic_relations(d, _UNITARITY)
        + _quadratic_relations(d, _Q_WEIGHTED, qd)
        + _determinant_relations(d, qr)
    )
    return Presentation("su_q", d, _star_close(rels), kac=False, q=qr)
