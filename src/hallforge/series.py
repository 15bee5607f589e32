"""Truncated series in the free associative algebra.

Words are tuples of generator indices (1-based), kept only up to a length
cutoff; multiplication is word concatenation with everything past the cutoff
discarded. Group-like series (constant coefficient 1) support exact powers by
arbitrary ring exponents through the binomial operator, which is the whole
point: the generator embeddings x_j -> 1 + x_j land in the group of group-like
series, and R-powers live there too.

The product is degree-aware: it buckets the right operand's words by length
once and pairs a left word of length d only with the right words of length
at most cutoff - d, so no pair past the cutoff is ever formed and the inner
loop has no length test. series_pow adds binom(a, k) u^k straight into one
dict, and the inverse is the power with exponent -1. Results built inside
this module are already clean, so they skip the public constructor's
filtering pass; only zero coefficients are dropped.

Coefficients are plain ring values (int / Fraction / Poly); since the cached
embedding data is integral, series with int coefficients combine freely with
any of the supported rings.
"""

from __future__ import annotations

from .errors import NotGroupLikeError, ShapeMismatchError
from .rings import ZZ, Ring

Word = tuple


class TruncatedSeries:
    __slots__ = ("rank", "cutoff", "coeffs")

    def __init__(self, rank: int, cutoff: int, coeffs: dict):
        self.rank = rank
        self.cutoff = cutoff
        clean = {}
        for w, c in coeffs.items():
            if len(w) <= cutoff and c:
                clean[w] = c
        self.coeffs = clean

    @classmethod
    def _trusted(cls, rank, cutoff, coeffs):
        """Wrap coeffs as is: every word fits the cutoff, no coefficient is zero."""
        s = cls.__new__(cls)
        s.rank = rank
        s.cutoff = cutoff
        s.coeffs = coeffs
        return s

    @classmethod
    def one(cls, rank, cutoff):
        return cls(rank, cutoff, {(): 1})

    @classmethod
    def generator_embedding(cls, rank, cutoff, j):
        """The series 1 + x_j, image of the j-th group generator."""
        if not 1 <= j <= rank:
            raise ShapeMismatchError(f"generator {j} out of range 1..{rank}")
        return cls(rank, cutoff, {(): 1, (j,): 1})

    def _check(self, other):
        if self.rank != other.rank or self.cutoff != other.cutoff:
            raise ShapeMismatchError(
                f"series shapes ({self.rank},{self.cutoff}) and "
                f"({other.rank},{other.cutoff}) do not match"
            )

    def coeff(self, word):
        return self.coeffs.get(tuple(word), 0)

    @property
    def constant_term(self):
        return self.coeffs.get((), 0)

    def is_group_like(self):
        return self.constant_term == 1

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, TruncatedSeries):
            self._check(other)
            out = dict(self.coeffs)
            for w, c in other.coeffs.items():
                out[w] = out.get(w, 0) + c
            return TruncatedSeries(self.rank, self.cutoff, out)
        out = dict(self.coeffs)
        out[()] = out.get((), 0) + other
        return TruncatedSeries(self.rank, self.cutoff, out)

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries(self.rank, self.cutoff, {w: -c for w, c in self.coeffs.items()})

    def __sub__(self, other):
        if isinstance(other, TruncatedSeries):
            self._check(other)
            return self + (-other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            if not other:
                return TruncatedSeries(self.rank, self.cutoff, {})
            return TruncatedSeries._trusted(
                self.rank, self.cutoff, _nonzero({w: c * other for w, c in self.coeffs.items()})
            )
        self._check(other)
        cut = self.cutoff
        # the right words by length: those of length <= k are flat[:ends[k]]
        buckets = [[] for _ in range(cut + 1)]
        for item in other.coeffs.items():
            buckets[len(item[0])].append(item)
        flat, ends = [], []
        for items in buckets:
            flat.extend(items)
            ends.append(len(flat))
        fits = [None] * (cut + 1)  # fits[room] = flat[:ends[room]], sliced once
        out: dict = {}
        get = out.get
        for w1, c1 in self.coeffs.items():
            room = cut - len(w1)
            pairs = fits[room]
            if pairs is None:
                pairs = fits[room] = flat[: ends[room]]
            for w2, c2 in pairs:
                w = w1 + w2
                prod = c1 * c2
                prev = get(w)
                out[w] = prod if prev is None else prev + prod
        return TruncatedSeries._trusted(self.rank, cut, _nonzero(out))

    def __rmul__(self, other):
        # scalars commute with everything
        return self.__mul__(other)

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (
            self.rank == other.rank
            and self.cutoff == other.cutoff
            and self.coeffs == other.coeffs
        )

    __hash__ = None

    def __repr__(self):
        bits = []
        for w in sorted(self.coeffs, key=lambda w: (len(w), w)):
            mono = "".join(f"x{j}" for j in w) or "1"
            bits.append(f"{self.coeffs[w]}*{mono}")
        return "Series(" + (" + ".join(bits) or "0") + ")"


def _nonzero(coeffs: dict) -> dict:
    return {w: c for w, c in coeffs.items() if c}


def augmentation_powers(s: TruncatedSeries) -> list[TruncatedSeries]:
    """[u^0, u^1, u^2, ...] for u = s - 1, until truncation kills them."""
    if not s.is_group_like():
        raise NotGroupLikeError("series has constant coefficient != 1")
    u = s - 1
    powers = [TruncatedSeries.one(s.rank, s.cutoff)]
    cur = powers[0]
    while True:
        cur = cur * u
        if not cur.coeffs:
            break
        powers.append(cur)
        if len(powers) > s.cutoff:
            break
    return powers


def series_pow(s: TruncatedSeries, exponent, ring: Ring, aug_powers=None):
    """Exact power of a group-like series by an arbitrary ring exponent.

    (1 + u)^a = sum_k binom(a, k) u^k; truncation makes the sum finite. For
    integer exponents this agrees with repeated multiplication.
    """
    if aug_powers is None:
        aug_powers = augmentation_powers(s)
    elif not s.is_group_like():
        raise NotGroupLikeError("series has constant coefficient != 1")
    exponent = ring.coerce(exponent)
    out = dict(aug_powers[0].coeffs)
    get = out.get
    for k in range(1, len(aug_powers)):
        b = ring.binom(exponent, k)
        if not b:
            continue
        for w, c in aug_powers[k].coeffs.items():
            term = c * b
            prev = get(w)
            out[w] = term if prev is None else prev + term
    return TruncatedSeries._trusted(s.rank, s.cutoff, _nonzero(out))


def group_like_inverse(s: TruncatedSeries) -> TruncatedSeries:
    """Inverse of a group-like series: the truncated geometric series sum (-u)^k."""
    return series_pow(s, -1, ZZ)


def group_commutator_series(s: TruncatedSeries, t: TruncatedSeries) -> TruncatedSeries:
    """s^-1 t^-1 s t for group-like series."""
    return group_like_inverse(s) * group_like_inverse(t) * s * t
