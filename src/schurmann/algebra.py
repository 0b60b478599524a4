"""Free *-algebra on d x d matrix generators and the presentation catalogue.

Elements are finitely supported linear combinations of words in the letters
u[j,k] and u*[j,k] (1-indexed).  A presentation is a *-closed list of labelled
relation elements r with counit(r) = 0; the catalogue covers the free unitary
algebra K<d>, the universal unitary algebras U_d+ and U_Q+ (diagonal Q > 0),
the free orthogonal algebras O_d+ and O_F+ (F Fbar = +-I), and the twisted
determinant algebras SU_q(d) with 0 < q < 1.  A presentation above the
table budget is refused from d before anything is built.

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
# one table near 100 MB; every sweep of the verification suite stays below a
# third of it.
MAX_TABLE_ENTRIES = 1 << 20


def require_entries(entries: int, what: str) -> None:
    """Refuse, before anything is allocated, a table above the entry budget."""
    if entries > MAX_TABLE_ENTRIES:
        raise InputError(
            f"{what} would hold {entries} entries, above the table budget "
            f"MAX_TABLE_ENTRIES = {MAX_TABLE_ENTRIES}"
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
        coefficients to nonzero ones, so the terms are not checked again."""
        adjoint = _adjoints(self.d).__getitem__
        terms = {tuple(map(adjoint, w[::-1])): c.conj() for w, c in self.terms.items()}
        a = object.__new__(Element)
        object.__setattr__(a, "d", self.d)
        object.__setattr__(a, "terms", terms)
        return a

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


def letters(d: int, starred: bool = True) -> list[Letter]:
    out = [
        Letter(j, k, s)
        for s in ((False, True) if starred else (False,))
        for j in range(1, d + 1)
        for k in range(1, d + 1)
    ]
    return out


@lru_cache(maxsize=8)
def _adjoints(d: int) -> dict[Letter, Letter]:
    """Every letter of size d mapped to its adjoint."""
    return {l: l.adjoint() for l in letters(d)}


def letter_index(l: Letter, d: int) -> int:
    """The position of the letter in `letters(d)`."""
    return (l.star * d + l.row - 1) * d + l.col - 1


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
    by_len: list[set] = [{()}]
    for w, _ in items:
        while len(by_len) <= len(w):
            by_len.append(set())
        for k in range(len(w)):
            s = w[k:]
            if s in by_len[len(s)]:
                break  # and so are its suffixes
            by_len[len(s)].add(s)
    # diagonal[number of w]: whether w has counit 1
    number, diagonal = {(): 0}, [True]
    layers, sizes = [], [1]
    for words in by_len[1:]:
        # (head, tail) tells the words apart, so w itself is never compared
        keyed = sorted((letter_index(w[0], d), number[w[1:]], w) for w in words)
        heads = [h for h, _, _ in keyed]
        tails = [t for _, t, _ in keyed]
        eps = [i for i, t in enumerate(tails) if diagonal[t]]
        for _, t, w in keyed:
            number[w] = len(diagonal)
            diagonal.append(diagonal[t] and w[0].row == w[0].col)
        layers.append((heads, tails, eps))
        sizes.append(len(words))
    den = lcm(*(c.den for _, c in items))
    re = [c.a * (den // c.den) for _, c in items]
    im = [c.b * (den // c.den) for _, c in items]
    at = [number[w] for w, _ in items]
    lengths = [len(w) for w, _ in items]
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
    rels = []
    for j in range(1, d + 1):
        for k in range(1, d + 1):
            for label, column, star_first in families:
                terms = {}
                for p in range(1, d + 1):
                    a, b = ((p, j), (p, k)) if column else ((j, p), (k, p))
                    r, c = a if star_first else b
                    w = weights[r - 1][c - 1]
                    terms[(Letter(*a, star_first), Letter(*b, not star_first))] = w
                if j == k:
                    terms[()] = -ONE
                rels.append((f"{label}({j},{k})", Element(d, terms)))
    return rels


def _symmetry_relations(d: int) -> list[tuple[str, Element]]:
    return [
        (f"sym({j},{k})", Element(d, {(Letter(j, k, False),): ONE, (Letter(j, k, True),): -ONE}))
        for j in range(1, d + 1)
        for k in range(1, d + 1)
    ]


def _form_relations(d: int, F: QMatrix) -> list[tuple[str, Element]]:
    # entrywise uF = F ubar, i.e. sum_p u[j,p] F[p,k] - sum_p F[j,p] u*[p,k]
    rels = []
    for j in range(1, d + 1):
        for k in range(1, d + 1):
            terms = {}
            for p in range(1, d + 1):
                terms[(Letter(j, p, False),)] = F[p - 1][k - 1]
                terms[(Letter(p, k, True),)] = -F[j - 1][p - 1]
            rels.append((f"uF-Fubar({j},{k})", Element(d, terms)))
    return rels


def _determinant_relations(d: int, q: Rational) -> list[tuple[str, Element]]:
    def twist(perm) -> Qi:
        return Qi((-q) ** inversion_count(perm))

    rels = []
    for tau in all_permutations(d):
        terms = {
            tuple(Letter(s, t, False) for s, t in zip(sigma, tau)): twist(sigma)
            for sigma in all_permutations(d)
        }
        terms[()] = -twist(tau)
        rels.append((f"det({','.join(map(str, tau))})", Element(d, terms)))
    return rels


def _star_close(rels: list[tuple[str, Element]]) -> tuple[tuple[str, Element], ...]:
    present = {r for _, r in rels}
    out = list(rels)
    for lbl, r in rels:
        rs = r.star()
        if rs not in present:
            out.append((f"{lbl}*", rs))
            present.add(rs)
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
