"""Words in basic-commutator letters: collection and power identities.

A word is a sequence of (index pair, exponent) letters. Two evaluation paths
exist on purpose: evaluate_word runs the series engine letter by letter, and
Collector.collect rewrites the word to its sorted standard form using only
the relations of the presentation (swap two misordered letters and append the
commutator tail, merge equal neighbours, drop zero exponents), with the tails
supplied by pre-derived structure-polynomial tables. The two paths must agree
on every word; the tests hold them to that.
"""

from __future__ import annotations

from .errors import MalformedTailError, OutOfClassError, ShapeMismatchError
from .group import FreeNilpotentGroup, GroupElement


def normalize_word(group: FreeNilpotentGroup, letters):
    """Validate pairs, coerce exponents, drop zeros."""
    out = []
    for pair, exp in letters:
        pair = tuple(pair)
        group.basis.flat(pair)  # raises for bad pairs
        e = group.ring.coerce(exp)
        if e:
            out.append((pair, e))
    return out


def evaluate_word(group: FreeNilpotentGroup, letters) -> GroupElement:
    """Series-engine evaluation: the product of pow(basic(pair), exp)."""
    acc = group.identity()
    for pair, exp in normalize_word(group, letters):
        acc = group.mul(acc, group.pow(group.basic(pair), exp))
    return acc


class Collector:
    """Rewriting collector driven by structure-polynomial tail tables.

    `structure` must provide tail_letters(high_pair, low_pair, a, b, ring)
    returning the standard form of [u_high^a, u_low^b] as a letter list in
    index order (all letters of weight >= the weight sum).

    collect refuses a tail letter that is not a basis pair or lies below
    that weight sum (MalformedTailError). Every swap then appends letters of
    strictly higher weight, and weights stop at the class, so collection
    terminates.
    """

    def __init__(self, group: FreeNilpotentGroup, structure):
        if (structure.rank, structure.nclass) != (group.rank, group.nclass):
            raise ShapeMismatchError("structure tables do not match the group")
        self.group = group
        self.structure = structure
        self._pairs = frozenset(group.basis.pairs)

    def _merge(self, letters):
        out = []
        for pair, e in letters:
            if out and out[-1][0] == pair:
                merged = out[-1][1] + e
                out.pop()
                if merged:
                    out.append((pair, merged))
            elif e:
                out.append((pair, e))
        return out

    def collect(self, letters) -> GroupElement:
        work = self._merge(normalize_word(self.group, letters))
        ring = self.group.ring
        while True:
            spot = None
            for k in range(len(work) - 1):
                if work[k][0] > work[k + 1][0]:
                    spot = k
                    break
            if spot is None:
                break
            (bp, be), (ap, ae) = work[spot], work[spot + 1]
            tail = list(self.structure.tail_letters(bp, ap, be, ae, ring))
            floor = bp[0] + ap[0]
            for pair, _ in tail:
                if not isinstance(pair, tuple) or pair not in self._pairs or pair[0] < floor:
                    raise MalformedTailError(
                        f"tail of [{bp}, {ap}] has the letter {pair!r}, which is not "
                        f"a basis pair of weight at least {floor}"
                    )
            work[spot : spot + 2] = [(ap, ae), (bp, be)] + tail
            work = self._merge(work)
        coords = [self.group.ring.zero] * self.group.dimension
        for pair, e in work:
            coords[self.group.basis.flat(pair)] = e
        return self.group.element(coords)


def simple_commutators(group: FreeNilpotentGroup, weight: int):
    """Left-normed commutators [..[x_i1, x_i2], ..., x_ik] for all index tuples."""
    if not 1 <= weight <= group.nclass:
        raise OutOfClassError(f"weight {weight} outside 1..{group.nclass}")
    level = group.generators()
    for _ in range(weight - 1):
        level = [group.commutator(s, g) for s in level for g in group.generators()]
    return level


def petresco_sequence(group: FreeNilpotentGroup, xs, upto: int):
    """tau_1 .. tau_upto for the element tuple xs.

    tau_k is defined by peeling the power identity at n = k: the product
    x_1^k ... x_m^k equals tau_1^k tau_2^C(k,2) ... tau_{k-1}^C(k,k-1) tau_k,
    and tau_k is whatever the earlier taus leave over.
    """
    if not 1 <= upto <= group.nclass:
        raise OutOfClassError(f"tau index {upto} outside 1..{group.nclass}")
    xs = [group._own(x) for x in xs]
    taus = []
    for k in range(1, upto + 1):
        power_product = group.identity()
        for x in xs:
            power_product = group.mul(power_product, group.pow(x, k))
        consumed = group.identity()
        for m, tau in enumerate(taus, start=1):
            consumed = group.mul(consumed, group.pow(tau, group.ring.binom(k, m)))
        taus.append(group.mul(group.inv(consumed), power_product))
    return taus


def petresco_tau(group: FreeNilpotentGroup, k: int, xs) -> GroupElement:
    return petresco_sequence(group, xs, k)[-1]


def petresco_identity_holds(group: FreeNilpotentGroup, xs, n: int, taus) -> bool:
    """x_1^n ... x_m^n == prod_k tau_k^binom(n, k) with k running to the class.

    taus = petresco_sequence(group, xs, group.nclass); they do not depend on
    n, so callers looping over exponents build them once per tuple.
    """
    lhs = group.identity()
    for x in xs:
        lhs = group.mul(lhs, group.pow(x, n))
    rhs = group.identity()
    for k, tau in enumerate(taus, start=1):
        rhs = group.mul(rhs, group.pow(tau, group.ring.binom(n, k)))
    return lhs == rhs


def commutator_power_identity_holds(
    group: FreeNilpotentGroup, h: GroupElement, g: GroupElement, a, taus
) -> bool:
    """[h, g^a] == [h,g]^a * prod_{m>=2} tau_m(h^-1 g^-1 h, g)^binom(a, m).

    taus = petresco_sequence(group, (w, g), group.nclass) with w = h^-1 g^-1 h;
    they do not depend on a, so callers looping over exponents build them once
    per pair.
    """
    lhs = group.commutator(h, group.pow(g, a))
    rhs = group.pow(group.commutator(h, g), a)
    for m in range(2, group.nclass + 1):
        rhs = group.mul(rhs, group.pow(taus[m - 1], group.ring.binom(a, m)))
    return lhs == rhs
