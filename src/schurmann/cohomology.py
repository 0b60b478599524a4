"""Second Hochschild cohomology with trivial coefficients.

A 2-cocycle is a bilinear form c on the free *-algebra satisfying
    eps(a) c(b, x) - c(ab, x) + c(a, bx) - c(a, b) eps(x) = 0,
the degree-2 part of the Hochschild complex for the (eps, eps)-bimodule
structure on the scalars.  Coboundaries are
    (d phi)(a, b) = eps(a) phi(b) - phi(ab) + phi(a) eps(b).

The defect maps send a normalized 2-cocycle to an exact d x d matrix whose
vanishing characterizes coboundaries on the unitary and orthogonal quotients:
a trace-zero matrix for the unitary flavor, an antisymmetric matrix for the
orthogonal one.  Basis families of pairing cocycles hit the standard bases of
those matrix spaces, and `primitive` rebuilds an explicit functional with
d(phi) = c whenever the defect vanishes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import repeat
from math import lcm
from operator import add, mul, sub

from .algebra import Element, Letter, Presentation, WordSet, counit, letters, word_set, words_up_to
from .cocycle import Cocycle, cocycle_columns, cocycle_general, scalar_gaussian_cocycle
from .errors import ObstructionError, RelationViolation
from .linalg import GaussianMatrix, QMatrix, QVector, _paired, _rref, inner_product
from .representation import sign_rep
from .scalars import I, ONE, ZERO, Qi, _qi
from .words import require_words, word_set_values

# Sign relating the defect of the diagonal pairing cocycles K_p to the matrix
# units: defect_unitary(K_p) = KP_DEFECT_SIGN * (e_pp - e_{p+1,p+1}).  The
# value is forced by the conjugate-linear-in-the-first-argument pairing; it
# was computed by brute force once and is pinned by the test suite.
KP_DEFECT_SIGN = -1


def _diagonal(w) -> bool:
    """counit(w) = 1, i.e. every letter of the word is diagonal."""
    return all(l.row == l.col for l in w)


def _star_word(w):
    return tuple(l.adjoint() for l in reversed(w))


def _pair_terms(c, a: Element, b: Element) -> list:
    """((wa, wb), ca cb) for every pair of words of a and b."""
    if a.d != c.d or b.d != c.d:
        raise ValueError("ambient size mismatch")
    return [((wa, wb), ca * cb) for wa, ca in a.terms.items() for wb, cb in b.terms.items()]


def _sums(evaluate, termss) -> list:
    """sum of coeff * value(key) over each list of (key, coeff) terms, with
    evaluate called once on the distinct keys of all of them."""
    keys = list(dict.fromkeys(k for terms in termss for k, _ in terms))
    at = dict(zip(keys, evaluate(keys)))
    return [sum((c * at[k] for k, c in terms), ZERO) for terms in termss]


class TwoCocycle:
    """Base class: bilinear forms on pairs of algebra elements, evaluated by
    `batch` on a batch of word pairs."""

    presentation: Presentation

    @property
    def d(self) -> int:
        return self.presentation.d

    def batch(self, pairs) -> list:
        raise NotImplementedError

    def value(self, a: Element, b: Element) -> Qi:
        return _sums(self.batch, [_pair_terms(self, a, b)])[0]


def _pairing_side(eta: Cocycle, ws) -> GaussianMatrix:
    """eta of every word, one column per word: the empty word and letters
    from the grids, the distinct longer words on one word set."""
    distinct = list(dict.fromkeys(ws))
    long, short = [w for w in distinct if len(w) > 1], [w for w in distinct if len(w) < 2]
    vals = [eta.letter_value(w[0]) if w else QVector.zero(eta.n) for w in short]
    den = lcm(*(z.den for v in vals for z in v))
    re, im = [[] for _ in range(eta.n)], [[] for _ in range(eta.n)]
    if long:
        values = cocycle_columns(eta, [Element.from_word(eta.d, w) for w in long])
        den = lcm(den, values.den)
        f = den // values.den
        re, im = ([[x * f for x in row] for row in part] for part in (values.re, values.im))
    for k, (xr, xi) in enumerate(zip(re, im)):
        zs = [v[k] for v in vals]
        xr += [z.a * (den // z.den) for z in zs]
        xi += [z.b * (den // z.den) for z in zs]
    at = {w: j for j, w in enumerate(long + short)}
    picks = [at[w] for w in ws]
    re, im = ([list(map(row.__getitem__, picks)) for row in part] for part in (re, im))
    return GaussianMatrix(re, im, den, len(ws))


@dataclass(frozen=True, eq=False)
class KPairCocycle(TwoCocycle):
    """c(a, b) = <eta1(a*), eta2(b)> for two cocycles on the same representation.

    A batch reads eta1 of the starred first words and eta2 of the second
    words, each side on one word set (`_pairing_side`), and pairs them on
    the numerators, one `Qi` per pair."""

    eta1: Cocycle
    eta2: Cocycle

    def __post_init__(self):
        if self.eta1.rep != self.eta2.rep:
            raise ValueError("pairing requires two cocycles on the same representation")

    @property
    def presentation(self) -> Presentation:
        return self.eta1.presentation

    def batch(self, pairs) -> list:
        stars = {wa: _star_word(wa) for wa in dict.fromkeys(wa for wa, _ in pairs)}
        x = _pairing_side(self.eta1, [stars[wa] for wa, _ in pairs])
        y = _pairing_side(self.eta2, [wb for _, wb in pairs])
        re, im = [0] * len(pairs), [0] * len(pairs)
        for xr, xi, yr, yi in zip(x.re, x.im, y.re, y.im):
            # conj(x_k) y_k = (xr yr + xi yi) + i (xr yi - xi yr)
            re = list(map(add, re, map(add, map(mul, xr, yr), map(mul, xi, yi))))
            im = list(map(add, im, map(sub, map(mul, xr, yi), map(mul, xi, yr))))
        return list(map(_qi, re, im, repeat(x.den * y.den)))


@dataclass(frozen=True, eq=False)
class CoboundaryCocycle(TwoCocycle):
    """d(phi) for any functional-shaped object with .presentation and
    .batch; a batch reads phi on u v, v and u in one call."""

    phi: object

    @property
    def presentation(self) -> Presentation:
        return self.phi.presentation

    def batch(self, pairs) -> list:
        k = len(pairs)
        vals = self.phi.batch(
            [wa + wb for wa, wb in pairs] + [wb for _, wb in pairs] + [wa for wa, _ in pairs]
        )
        out = []
        for i, (wa, wb) in enumerate(pairs):
            v = -vals[i]
            if _diagonal(wa):
                v = v + vals[k + i]
            if _diagonal(wb):
                v = v + vals[2 * k + i]
            out.append(v)
        return out


@dataclass(frozen=True, eq=False)
class CombinationCocycle(TwoCocycle):
    """A finite linear combination of 2-cocycles over the same presentation."""

    terms: tuple

    def __post_init__(self):
        if not self.terms:
            raise ValueError("empty combination")
        pres = self.terms[0][1].presentation
        for _, t in self.terms:
            if t.presentation != pres:
                raise ValueError("combination mixes presentations")

    @property
    def presentation(self) -> Presentation:
        return self.terms[0][1].presentation

    def batch(self, pairs) -> list:
        coeffs = [coeff for coeff, _ in self.terms]
        cols = [t.batch(pairs) for _, t in self.terms]
        return [sum(map(mul, coeffs, vs), ZERO) for vs in zip(*cols)]


@dataclass(frozen=True)
class CounitFunctional:
    """The counit as a functional, used for the normalizing coboundary."""

    presentation: Presentation

    def value(self, a: Element) -> Qi:
        return counit(a)

    def batch(self, words) -> list:
        return [ONE if _diagonal(w) else ZERO for w in words]


def _cuts(w):
    """(h, t) for the cuts w = p h t whose prefix p is diagonal."""
    for i, h in enumerate(w):
        yield h, w[i + 1 :]
        if h.row != h.col:
            return


class LetterFunctional:
    """A functional on the free *-algebra fixed by its letter values and

        v(h w) = sign c(h, w) + [h diagonal] v(w) + eps(w) v(h),    v(1) = 0,

    for a letter h and a 2-cocycle c, so d(v)(h, w) = -sign c(h, w).  A
    subclass holds the grids `values` / `star_values` and names its first
    term by the class attribute `sign` and the 2-cocycle `form`: a generating
    functional (+1, <eta(.*), eta(.)>, so d(psi) is minus the pairing) and a
    primitive (-1, its 2-cocycle).  Unrolled, the recursion is a sum over
    the cuts w = p h t with a diagonal prefix p,

        v(w) = sum (sign c(h, t) + eps(t) v(h)),

    so `batch` reads c on one batch of cuts.  No check tabulates v: the
    dense checks read eta alone (`square_zero_on_letters`,
    `verify_primitive_exhaustive`, `functional.pool_gram_matrix`).
    """

    @property
    def d(self) -> int:
        return self.presentation.d

    def letter_value(self, l: Letter) -> Qi:
        grid = self.star_values if l.star else self.values
        return grid[l.row - 1][l.col - 1]

    def batch(self, words) -> list:
        """v(w) for every word, from c on the distinct cuts of the distinct words."""
        cuts_of = {w: list(_cuts(w)) for w in words}
        cuts = list(dict.fromkeys(cut for cs in cuts_of.values() for cut in cs))
        at = {}
        for (h, t), first in zip(cuts, self.form.batch([((h,), t) for h, t in cuts])):
            v = first if self.sign > 0 else -first
            at[h, t] = (v + self.letter_value(h)) if _diagonal(t) else v
        sums = {w: sum((at[cut] for cut in cs), ZERO) for w, cs in cuts_of.items()}
        return [sums[w] for w in words]

    def value(self, a: Element) -> Qi:
        if a.d != self.d:
            raise ValueError(f"ambient size mismatch: element {a.d}, functional {self.d}")
        return _sums(self.batch, [a.terms.items()])[0]

    def relation_violations(self) -> list:
        """(label, value) for every relation on which the functional is not 0."""
        rels = self.presentation.relations
        values = _sums(self.batch, [r.terms.items() for _, r in rels])
        return [(lbl, val) for (lbl, _), val in zip(rels, values) if not val.is_zero()]


def coboundary1(phi) -> CoboundaryCocycle:
    if not (hasattr(phi, "batch") and hasattr(phi, "presentation")):
        raise TypeError("coboundary1 expects an evaluable functional")
    return CoboundaryCocycle(phi)


def is_normalized(c: TwoCocycle) -> bool:
    return c.batch([((), ())])[0].is_zero()


def normalize(c: TwoCocycle) -> TwoCocycle:
    """c - c(1,1) d(eps), which is normalized and cohomologous to c."""
    v = c.batch([((), ())])[0]
    if v.is_zero():
        return c
    correction = CoboundaryCocycle(CounitFunctional(c.presentation))
    return CombinationCocycle(((ONE, c), (-v, correction)))


def check_2cocycle(c: TwoCocycle, triples=None, seed: int = 0):
    """Test the degree-2 identity; returns a violating (a, b, x, value) or None.

    The default sample takes letter triples (all of them when there are at
    most 1000, a seeded selection otherwise) plus 20 random word triples of
    length up to 2.
    """
    d = c.d
    if triples is None:
        rng = random.Random(seed)
        alpha = letters(d)
        els = [Element.from_word(d, (l,)) for l in alpha]
        triples = []
        if len(alpha) ** 3 <= 1000:
            triples.extend((a, b, x) for a in els for b in els for x in els)
        else:
            for _ in range(200):
                triples.append(tuple(rng.choice(els) for _ in range(3)))
        pool = [()] + [(l,) for l in alpha] + [
            (l1, l2) for l1 in alpha for l2 in alpha
        ]
        for _ in range(20):
            triples.append(
                tuple(Element.from_word(d, rng.choice(pool)) for _ in range(3))
            )
    triples = list(triples)
    pairs = [(p, q) for a, b, x in triples for p, q in ((b, x), (a * b, x), (a, b * x), (a, b))]
    values = iter(_sums(c.batch, [_pair_terms(c, p, q) for p, q in pairs]))
    for a, b, x in triples:
        bx, ab_x, a_bx, ab = (next(values) for _ in range(4))
        val = counit(a) * bx - ab_x + a_bx - ab * counit(x)
        if not val.is_zero():
            return (a, b, x, val)
    return None


def _star_pairing(c: KPairCocycle) -> bool:
    """Whether both cocycles of the pairing live on a representation whose
    R_star is adjoint R, so that sigma = rho (`Representation.dual`)."""
    return all(eta.rep.dual is eta.rep for eta in (c.eta1, c.eta2))


def _pairing_terms(c: TwoCocycle, coeff: Qi = ONE) -> list:
    """(coefficient, pairing) for every pairing term of c, the coefficients
    of nested combinations multiplied out and coboundary terms dropped;
    TypeError for any other kind of 2-cocycle."""
    if isinstance(c, KPairCocycle):
        return [(coeff, c)]
    if isinstance(c, CoboundaryCocycle):
        return []
    if isinstance(c, CombinationCocycle):
        return [term for k, t in c.terms for term in _pairing_terms(t, coeff * k)]
    raise TypeError(f"no letter-triple identity for a 2-cocycle of type {type(c).__name__}")


def _pairing_triple(d: int, terms: list):
    """The first letter triple (a, b, x), in code order of a b x, with
    value = sum k <eta1(a*), (rho(b) - sigma(b)) eta2(x)> over the terms
    (k, pairing) nonzero, and that value; or None.  rho is eta2's
    representation and sigma the dual of eta1's."""
    alpha = letters(d)
    moved = []
    for b in alpha:
        gaps = [(p.eta2.rep.image(*b) - p.eta1.rep.dual.image(*b), p.eta2) for _, p in terms]
        for x in alpha:
            ys = [(j, gap.apply(eta2.letter_value(x))) for j, (gap, eta2) in enumerate(gaps)]
            ys = [(j, y) for j, y in ys if not y.is_zero()]
            if ys:
                moved.append((b, x, ys))
    for a in alpha:
        lefts = [p.eta1.letter_value(a.adjoint()) for _, p in terms]
        for b, x, ys in moved:
            value = sum((terms[j][0] * inner_product(lefts[j], y) for j, y in ys), ZERO)
            if not value.is_zero():
                return a, b, x, value
    return None


def square_zero_on_letters(c: TwoCocycle):
    """Exhaustive degree-2 identity over all letter triples; returns the
    first violating (a, b, x, value), in code order of a b x, or None.

    The identity is decided from the letter grids alone.  On a pairing
    c(u, v) = <eta1(u*), eta2(v)>, for letters a, b, x, with eta(b x) =
    rho(b) eta(x) + eps(x) eta(b) and eta(b* a*) = rho(b*) eta(a*) + eps(a)
    eta(b*), moving rho(b*) across the pairing,

        c(a, b x) - c(a b, x) + eps(a) c(b, x) - c(a, b) eps(x)
            = <eta1(a*), (rho(b) - sigma(b)) eta2(x)>,

    with rho eta2's representation and sigma(l) = adjoint(rho1(l*)) the dual
    of eta1's (`Representation.dual`): the eps terms cancel.  A coboundary
    c = d(phi) satisfies the identity on every triple of words, whatever
    the values of phi (d d = 0): with (d phi)(u, v) = eps(u) phi(v) -
    phi(u v) + phi(u) eps(v), the left-hand side expands into twelve terms
    that cancel in pairs, since eps is multiplicative on words: eps(a b) =
    eps(a) eps(b) and eps(b x) = eps(b) eps(x).  The left-hand side is
    linear in c, so a combination takes the sum of its terms' values, the
    coefficients of nested combinations multiplied out (`_pairing_terms`):
    its coboundary terms add 0, and so do its pairings whose two
    representations have R_star adjoint R, where sigma = rho.  When no
    other term is left every triple holds, with nothing evaluated.
    Otherwise the first nonzero value is rechecked through `batch` on its
    four pairs, and a mismatch raises ArithmeticError.  Any other kind of
    2-cocycle raises TypeError (`check_2cocycle` samples it through `batch`).
    """
    require_words(c.d, 3)
    terms = [(k, p) for k, p in _pairing_terms(c) if not _star_pairing(p)]
    if not terms:
        return None
    found = _pairing_triple(c.d, terms)
    if found is not None:
        a, b, x, value = found
        bx, ab_x, a_bx, ab = c.batch([((b,), (x,)), ((a, b), (x,)), ((a,), (b, x)), ((a,), (b,))])
        eps_a, eps_x = (ONE if l.row == l.col else ZERO for l in (a, x))
        if eps_a * bx - ab_x + a_bx - ab * eps_x != value:
            raise ArithmeticError("a letter triple's pairing value disagrees with batch", found)
    return found


_UNITARY_KINDS = ("k_d", "u_plus", "u_q", "su_q")


def _letter_sums(c: TwoCocycle, *patterns) -> list:
    """The d x d matrix of sum_p c(x, y) over the letters (x, y) = f(j, k, p)
    for each pattern f (indices from 1); the distinct letter pairs of all
    patterns are read in one batch."""
    r = range(1, c.d + 1)
    keys = list(dict.fromkeys(f(j, k, p) for f in patterns for j in r for k in r for p in r))
    at = dict(zip(keys, c.batch([((x,), (y,)) for x, y in keys])))
    return [
        QMatrix([[sum((at[f(j, k, p)] for p in r), ZERO) for k in r] for j in r], cols=c.d)
        for f in patterns
    ]


def _require_normalized(c: TwoCocycle):
    if not is_normalized(c):
        raise ValueError("2-cocycle must be normalized; apply normalize() first")


def defect_unitary(c: TwoCocycle) -> QMatrix:
    """Delta(c)_jk = sum_p ( c(u*_pj, u_pk) - c(u*_kp, u_jp) ), trace zero."""
    if c.presentation.kind not in _UNITARY_KINDS:
        raise ValueError("unitary defect needs a unitary-flavored presentation")
    _require_normalized(c)
    plus, minus = _letter_sums(
        c,
        lambda j, k, p: (Letter(p, j, True), Letter(p, k, False)),
        lambda j, k, p: (Letter(k, p, True), Letter(j, p, False)),
    )
    m = plus - minus
    if not m.trace().is_zero():
        raise ArithmeticError("unitary defect with nonzero trace", m)
    return m


def defect_orthogonal(c: TwoCocycle) -> QMatrix:
    """Delta_O(c)_jk = sum_p ( c(u_jp, u_kp) - c(u_kp, u_jp) ), antisymmetric."""
    if c.presentation.kind != "o_plus":
        raise ValueError("orthogonal defect needs an o_plus presentation")
    _require_normalized(c)
    plus, minus = _letter_sums(
        c,
        lambda j, k, p: (Letter(j, p, False), Letter(k, p, False)),
        lambda j, k, p: (Letter(k, p, False), Letter(j, p, False)),
    )
    m = plus - minus
    if not (m + m.transpose()).is_zero():
        raise ArithmeticError("orthogonal defect that is not antisymmetric", m)
    return m


def sum_identity_defects(c: TwoCocycle) -> dict:
    """Differences of the paired unitarity sums at every (j, k).

    All values vanish for any normalized 2-cocycle on the applicable kinds.
    z1(j,k) = sum_p c(u*_pj, u_pk) - sum_p c(u_jp, u*_kp) follows from the
    unitarity of u alone and applies to every catalogued kind.  z2(j,k) =
    sum_p c(u*_jp, u_kp) - sum_p c(u_pj, u*_pk) additionally needs the
    transposed unitarity, so it is computed on u_plus and o_plus only.
    o(j,k) = sum_p c(u_pj, u_pk) - sum_p c(u_jp, u_kp) uses the symmetry of
    the generator matrix and is computed on o_plus only.
    """
    kind = c.presentation.kind
    patterns = {
        "z1": (
            lambda j, k, p: (Letter(p, j, True), Letter(p, k, False)),
            lambda j, k, p: (Letter(j, p, False), Letter(k, p, True)),
        )
    }
    if kind in ("u_plus", "o_plus"):
        patterns["z2"] = (
            lambda j, k, p: (Letter(j, p, True), Letter(k, p, False)),
            lambda j, k, p: (Letter(p, j, False), Letter(p, k, True)),
        )
    if kind == "o_plus":
        patterns["o"] = (
            lambda j, k, p: (Letter(p, j, False), Letter(p, k, False)),
            lambda j, k, p: (Letter(j, p, False), Letter(k, p, False)),
        )
    sums = iter(_letter_sums(c, *(f for pair in patterns.values() for f in pair)))
    diffs = {name: next(sums) - next(sums) for name in patterns}
    r = range(c.d)
    return {f"{name}({j + 1},{k + 1})": m[j][k] for j in r for k in r for name, m in diffs.items()}


def matrix_unit(d: int, j: int, k: int, coeff: Qi = ONE) -> QMatrix:
    rows = [[ZERO] * d for _ in range(d)]
    rows[j - 1][k - 1] = coeff
    return QMatrix(rows, cols=d)


def basis_unitary(presentation: Presentation, l: int = 1) -> dict:
    """Pairing cocycles whose defects realize the trace-zero matrix basis.

    K_m_n (m != n) pairs the Gaussian cocycles of the matrix units e_lm and
    e_ln, so its defect is e_mn.  K_p_p pairs the Gaussian cocycle of
    e_pp + i e_{p,p+1} + e_{p+1,p+1} with itself; its defect is
    KP_DEFECT_SIGN * (e_pp - e_{p+1,p+1}).
    """
    if presentation.kind != "u_plus":
        raise ValueError("the unitary basis lives on a u_plus presentation")
    d = presentation.d
    if not 1 <= l <= d:
        raise ValueError("anchor index out of range")
    out = {}
    for m in range(1, d + 1):
        for n in range(1, d + 1):
            if m == n:
                continue
            a = scalar_gaussian_cocycle(presentation, matrix_unit(d, l, m))
            b = scalar_gaussian_cocycle(presentation, matrix_unit(d, l, n))
            out[f"K_{m}_{n}"] = KPairCocycle(a, b)
    for p in range(1, d):
        vp = (
            matrix_unit(d, p, p)
            + matrix_unit(d, p, p + 1, I)
            + matrix_unit(d, p + 1, p + 1)
        )
        eta = scalar_gaussian_cocycle(presentation, vp)
        out[f"K_p_{p}"] = KPairCocycle(eta, eta)
    return out


def basis_orthogonal(presentation: Presentation) -> dict:
    """Pairing cocycles whose defects realize the antisymmetric matrix basis.

    For d >= 3, Khat_m_n (m < n) pairs the Gaussian cocycles of Z_lm and
    Z_ln with l the smallest index outside {m, n}; its defect is
    Z_mn = e_mn - e_nm.  For d = 2 no Gaussian pair works and the single
    class Kz pairs the two anti-Gaussian cocycles of diag(1, -1) and the
    symmetric flip; its defect is 2 Z_12.
    """
    if presentation.kind != "o_plus":
        raise ValueError("the orthogonal basis lives on an o_plus presentation")
    d = presentation.d
    out = {}
    if d >= 3:
        for m in range(1, d + 1):
            for n in range(m + 1, d + 1):
                l = min(set(range(1, d + 1)) - {m, n})
                zm = matrix_unit(d, l, m) - matrix_unit(d, m, l)
                zn = matrix_unit(d, l, n) - matrix_unit(d, n, l)
                a = scalar_gaussian_cocycle(presentation, zm)
                b = scalar_gaussian_cocycle(presentation, zn)
                out[f"Khat_{m}_{n}"] = KPairCocycle(a, b)
    elif d == 2:
        rep = sign_rep(presentation, 1)
        z1 = [[QVector((ONE,)), QVector((ZERO,))], [QVector((ZERO,)), QVector((-ONE,))]]
        z2 = [[QVector((ZERO,)), QVector((ONE,))], [QVector((ONE,)), QVector((ZERO,))]]
        eta1 = cocycle_general(rep, z1, z1)
        eta2 = cocycle_general(rep, z2, z2)
        out["Kz"] = KPairCocycle(eta1, eta2)
    return out


@dataclass(frozen=True)
class Primitive(LetterFunctional):
    """A functional phi with d(phi) = two_cocycle, determined by letter values
    and the recursion phi(l w) = eps(l) phi(w) + phi(l) eps(w) - c(l, w)."""

    two_cocycle: TwoCocycle
    values: QMatrix
    star_values: QMatrix

    sign = -1

    @property
    def presentation(self) -> Presentation:
        return self.two_cocycle.presentation

    @property
    def form(self) -> TwoCocycle:
        return self.two_cocycle


def check_primitive(phi: Primitive, pairs=None, seed: int = 0):
    """Spot check d(phi) = c; returns a violating (a, b, got, want) or None."""
    c = phi.two_cocycle
    d = phi.d
    if pairs is None:
        rng = random.Random(seed)
        alpha = letters(d)
        els = [Element.from_word(d, (l,)) for l in alpha]
        pairs = [(a, b) for a in els for b in els]
        pool = [()] + [(l,) for l in alpha] + [
            (l1, l2) for l1 in alpha for l2 in alpha
        ]
        for _ in range(24):
            pairs.append(
                (
                    Element.from_word(d, rng.choice(pool)),
                    Element.from_word(d, rng.choice(pool)),
                )
            )
    pairs = list(pairs)
    terms = [_pair_terms(c, a, b) for a, b in pairs]
    gots = _sums(CoboundaryCocycle(phi).batch, terms)
    for (a, b), got, want in zip(pairs, gots, _sums(c.batch, terms)):
        if got != want:
            return (a, b, got, want)
    return None


def primitive(c: TwoCocycle) -> Primitive:
    """Construct phi with d(phi) = c.

    Unitary flavor (k_d needs no precondition, u_plus needs zero defect):
        phi(u[j,k]) = phi(u*[k,j]) = 1/2 sum_p c(u*_pj, u_pk).
    Orthogonal flavor (o_plus, zero defect):
        phi(u[j,k]) = phi(u*[j,k]) = 1/2 sum_p c(u_pj, u_pk).
    The letter values are extended by the coboundary recursion and the result
    is validated on all relations and on sampled pairs.
    """
    pres = c.presentation
    _require_normalized(c)
    half = Qi("1/2")
    if pres.kind in ("k_d", "u_plus"):
        if pres.kind == "u_plus":
            defect = defect_unitary(c)
            if not defect.is_zero():
                raise ObstructionError("unitary", defect)
        (sums,) = _letter_sums(c, lambda j, k, p: (Letter(p, j, True), Letter(p, k, False)))
        values = sums.scale(half)
        star_values = values.transpose()
    elif pres.kind == "o_plus":
        defect = defect_orthogonal(c)
        if not defect.is_zero():
            raise ObstructionError("orthogonal", defect)
        (sums,) = _letter_sums(c, lambda j, k, p: (Letter(p, j, False), Letter(p, k, False)))
        values = sums.scale(half)
        star_values = values
    else:
        raise ValueError("primitive construction covers k_d, u_plus and o_plus")
    phi = Primitive(c, values, star_values)
    violations = phi.relation_violations()
    if violations:
        raise RelationViolation("primitive", violations)
    witness = check_primitive(phi)
    if witness is not None:
        raise RelationViolation("primitive pair check", [("d(phi) = c", witness[2] - witness[3])])
    return phi


def _primitive_witness(phi: Primitive, aw, bw):
    """Canonical (a, b, d(phi)(a, b), c(a, b)) for a violating word pair."""
    (got,) = CoboundaryCocycle(phi).batch([(aw, bw)])
    (want,) = phi.two_cocycle.batch([(aw, bw)])
    return (aw, bw, got, want)


def verify_primitive_exhaustive(phi: Primitive, max_len: int = 3):
    """Check d(phi) = c on every pair of words of length <= max_len, for a
    pairing c(u, v) = <eta1(u*), eta2(v)>.

    Returns (number of pairs checked, first violating pair or None) in the
    order of the pairs (u, v) by (length, code) of u, then of v; a violation
    carries the two words as letter tuples plus the values of d(phi) and c
    there.  Only pairing 2-cocycles are supported.  A max_len whose eta
    values, n coordinates of the words of length max_len, would overflow
    the table budget is refused (InputError) before anything is built, on
    every representation (`words.require_words`).

    No value of phi is read.  Unrolled, phi's letter recursion sums over the
    cuts w = p h t with a diagonal prefix p: phi(w) = sum (-c(h, t) + eps(t)
    phi(h)).  Take w = u v.  The cuts inside v have p = u p' and add up to
    eps(u) phi(v).  A cut p h t of u is the cut p h (t v) of w, and eta2(t
    v) = rho(t) eta2(v) + eta2(t) eps(v); moving rho(t) across the pairing
    and summing over the cuts of u,

        phi(u v) = -<xi(u), eta2(v)> + eps(v) phi(u) + eps(u) phi(v),
        xi(u) = sum over the cuts u = p h t of adjoint(rho(t)) eta1(h*),

    so d(phi)(u, v) - c(u, v) = <zeta1(u*) - eta1(u*), eta2(v)> with zeta1(w)
    = xi(w*): eta1's letter values on the dual of eta2's representation,
    sigma(l) = adjoint(rho(l*)) (`Representation.dual`), as in
    `functional.pool_gram_matrix`.  When both representations have R_star
    adjoint R, zeta1 = eta1 and every pair holds, with nothing evaluated.
    zeta1 and eta1 share their letter values, so delta(u) = zeta1(u*) -
    eta1(u*) below is 0 for the empty word and every letter: at max_len <= 1
    every pair holds with nothing evaluated, and the scan starts at length 2.

    Otherwise every word up to length max_len, in code order, is compiled
    into one word set (`_all_words`), and eta1, zeta1 and eta2 are read on
    it by the word-set evaluator, one call each.  A word u fails some pair
    exactly when delta(u) = zeta1(u*) - eta1(u*) is not orthogonal to the
    r <= n pivot words of eta2 (the first words whose eta2 values are independent
    of those before them), so each u costs r inner products.  For the first
    failing u the words v are scanned in order; the witness is rechecked on
    the word-set evaluator (`_primitive_witness`), and a recheck whose d(phi)
    - c differs from <delta(u), eta2(v)> raises ArithmeticError.
    """
    c = phi.two_cocycle
    if not isinstance(c, KPairCocycle):
        raise TypeError("exhaustive verification expects a pairing 2-cocycle")
    d, n, base = phi.d, c.eta2.n, 2 * phi.d**2
    require_words(d, max_len, n)
    if _star_pairing(c) or max_len <= 1:
        return sum(base**m for m in range(max_len + 1)) ** 2, None
    words, ws = _all_words(d, max_len)
    e1 = word_set_values(ws, c.eta1.rep.action, n, c.eta1.numerators)
    z1 = word_set_values(ws, c.eta2.rep.dual.action, n, c.eta1.numerators)
    h2 = word_set_values(ws, c.eta2.rep.action, n, c.eta2.numerators)
    _, pivots = _rref(h2.re, h2.im, len(words))
    at = {w: j for j, w in enumerate(words)}
    den = lcm(z1.den, e1.den)
    f, g = den // z1.den, den // e1.den
    for iu, u in enumerate(words[1 + base :], 1 + base):
        s = at[_star_word(u)]
        xr = [a[s] * f - b[s] * g for a, b in zip(z1.re, e1.re)]
        xi = [a[s] * f - b[s] * g for a, b in zip(z1.im, e1.im)]
        if all(_paired(xr, xi, h2.re, h2.im, j) == (0, 0) for j in pivots):
            continue
        iv, (re, im) = next(
            (j, p) for j in range(len(words)) if (p := _paired(xr, xi, h2.re, h2.im, j)) != (0, 0)
        )
        witness = _primitive_witness(phi, u, words[iv])
        if witness[2] - witness[3] != _qi(re, im, den * h2.den):
            raise ArithmeticError("the sweep's witness disagrees with the word-set evaluator", witness)
        return iu * len(words) + iv + 1, witness
    return len(words) ** 2, None


def _all_words(d: int, max_len: int) -> tuple[list, WordSet]:
    """Every word of length <= max_len in code order, and the word set
    compiled from them, one element per word."""
    words = list(words_up_to(d, max_len))
    return words, word_set(d, [Element.from_word(d, w) for w in words])


@dataclass(frozen=True)
class ClassCoordinates:
    """Coefficients of a normalized 2-cocycle in the defect basis."""

    flavor: str
    coefficients: dict
    defect: QMatrix


def class_coordinates(c: TwoCocycle) -> ClassCoordinates:
    """Coordinates of [c] with respect to the named basis classes.

    Unitary flavor: coefficient of K_m_n is Delta(c)_mn and the coefficient
    of K_p_p is KP_DEFECT_SIGN times the p-th partial sum of the diagonal.
    Orthogonal flavor: coefficient of Khat_m_n is Delta_O(c)_mn, and for
    d = 2 the coefficient of Kz is Delta_O(c)_12 / 2.  The linear combination
    of basis defects is checked to reproduce the defect of c exactly.
    """
    pres = c.presentation
    d = pres.d
    sign = Qi(KP_DEFECT_SIGN)
    if pres.kind == "u_plus":
        defect = defect_unitary(c)
        coeffs = {}
        for m in range(1, d + 1):
            for n in range(1, d + 1):
                if m != n:
                    coeffs[f"K_{m}_{n}"] = defect[m - 1][n - 1]
        partial = ZERO
        for p in range(1, d):
            partial = partial + defect[p - 1][p - 1]
            coeffs[f"K_p_{p}"] = sign * partial
        basis = basis_unitary(pres)
        flavor = "unitary"
    elif pres.kind == "o_plus":
        defect = defect_orthogonal(c)
        coeffs = {}
        if d >= 3:
            for m in range(1, d + 1):
                for n in range(m + 1, d + 1):
                    coeffs[f"Khat_{m}_{n}"] = defect[m - 1][n - 1]
        elif d == 2:
            coeffs["Kz"] = defect[0][1] / Qi(2)
        basis = basis_orthogonal(pres)
        flavor = "orthogonal"
    else:
        raise ValueError("class coordinates cover u_plus and o_plus")
    rebuilt = QMatrix.zero(d, d)
    dmap = defect_unitary if flavor == "unitary" else defect_orthogonal
    for name, coeff in coeffs.items():
        rebuilt = rebuilt + dmap(basis[name]).scale(coeff)
    if rebuilt != defect:
        raise ArithmeticError("basis combination does not rebuild the defect", rebuilt, defect)
    return ClassCoordinates(flavor, coeffs, defect)
