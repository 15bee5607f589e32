"""Hall bases of basic commutators for the free nilpotent setting.

Construction rule: generators are the weight-1 entries in generator order;
a bracket [u, v] is basic iff u > v in the current total order and, when
u = [a, b], additionally b <= v. The total order is (weight, discovery
index), with discovery running u-major ascending inside each weight. The
index pairs (i, j) number the j-th entry of weight i and are ordered
lexicographically, matching the flat entry order.

Each basic commutator maps into the truncated free associative algebra in
two ways: as a Lie element (iterated ring commutator, homogeneous of its
weight) and as a group embedding image (iterated group commutator of the
series 1 + x_j, a group-like series with integer coefficients).

hall_basis refuses, before building anything, a configuration with more
than ENGINE_WORD_LIMIT words sum_{i <= class} rank^i; the engine shares it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from types import MappingProxyType

from .errors import BadRankError, OutOfClassError, ScaleLimitError
from .series import TruncatedSeries, group_commutator_series


# far above every configuration the tests and the benchmark build: (3,4) has
# 121 words and (3,5) 364; (2,10) has 2047 and is refused
ENGINE_WORD_LIMIT = 2000


@dataclass(frozen=True)
class BasicCommutator:
    pair: tuple[int, int]  # (weight, position-in-weight), both 1-based
    weight: int
    position: int  # 0-based flat position in the basis
    generator: int | None = None
    parts: tuple["BasicCommutator", "BasicCommutator"] | None = None

    @property
    def is_leaf(self):
        return self.generator is not None

    def tree_obj(self):
        """Nested-list form: a leaf is its generator index, a node is [left, right]."""
        if self.is_leaf:
            return self.generator
        left, right = self.parts
        return [left.tree_obj(), right.tree_obj()]

    def label(self) -> str:
        if self.is_leaf:
            return f"x{self.generator}"
        left, right = self.parts
        return f"[{left.label()},{right.label()}]"

    def __repr__(self):
        return f"BasicCommutator({self.pair}, {self.label()})"


@dataclass(frozen=True)
class HallBasis:
    rank: int
    nclass: int
    entries: tuple[BasicCommutator, ...]
    counts: tuple[int, ...]  # entries per weight, 1..nclass
    _lie_cache: dict = field(default_factory=dict, compare=False, repr=False)
    _embed_cache: dict = field(default_factory=dict, compare=False, repr=False)

    def __len__(self):
        return len(self.entries)

    @property
    def pairs(self):
        return tuple(e.pair for e in self.entries)

    def flat(self, pair) -> int:
        """Flat index of the (weight, position) pair."""
        try:
            i, j = pair
        except (TypeError, ValueError):
            raise OutOfClassError(f"basis index {pair!r} is not a pair") from None
        if not (type(i) is int and type(j) is int):
            raise OutOfClassError(f"basis index {pair!r} is not a pair of integers")
        if not (1 <= i <= self.nclass and 1 <= j <= self.counts[i - 1]):
            raise OutOfClassError(f"no basis entry with index {pair}")
        return sum(self.counts[: i - 1]) + j - 1

    def weight_start(self, i) -> int:
        if not 1 <= i <= self.nclass:
            raise OutOfClassError(f"weight {i} outside 1..{self.nclass}")
        return sum(self.counts[: i - 1])

    def weight_block(self, i) -> range:
        start = self.weight_start(i)
        return range(start, start + self.counts[i - 1])

    @cached_property
    def bracket_pairs(self) -> MappingProxyType:
        """(a.pair, b.pair) -> (a, b) for the ordered pairs of distinct entries with
        weight sum at most the class, in entry order: every pair whose bracket a
        graded table can hold. The keys are built once per basis."""
        return MappingProxyType({
            (a.pair, b.pair): (a, b) for a in self.entries for b in self.entries
            if a is not b and a.weight + b.weight <= self.nclass
        })

    def lie_element(self, entry: BasicCommutator) -> TruncatedSeries:
        """Iterated bracket lie(l)lie(r) - lie(r)lie(l); homogeneous of the weight."""
        got = self._lie_cache.get(entry.position)
        if got is None:
            if entry.is_leaf:
                got = TruncatedSeries(self.rank, self.nclass, {(entry.generator,): 1})
            else:
                left = self.lie_element(entry.parts[0])
                right = self.lie_element(entry.parts[1])
                got = left * right - right * left
            self._lie_cache[entry.position] = got
        return got

    def embedding_image(self, entry: BasicCommutator) -> TruncatedSeries:
        """Iterated group commutator of the generator embeddings 1 + x_j."""
        got = self._embed_cache.get(entry.position)
        if got is None:
            if entry.is_leaf:
                got = TruncatedSeries.generator_embedding(
                    self.rank, self.nclass, entry.generator
                )
            else:
                left = self.embedding_image(entry.parts[0])
                right = self.embedding_image(entry.parts[1])
                got = group_commutator_series(left, right)
            self._embed_cache[entry.position] = got
        return got


def check_config_types(rank, nclass) -> None:
    """Raise BadRankError / OutOfClassError unless rank and class are plain ints.

    bool, float and str are refused before any work: otherwise True would
    build a group of class True, and a float or a str would fail later with
    a bare TypeError. The caches keyed on (rank, class) are typed, so an
    equal value of another type never reaches a cached int result.
    """
    if type(rank) is not int:
        raise BadRankError(f"rank {rank!r} is not an int")
    if type(nclass) is not int:
        raise OutOfClassError(f"nilpotency class {nclass!r} is not an int")


def check_engine_scale(rank: int, nclass: int) -> None:
    """Raise ScaleLimitError when N(rank, class) has more than ENGINE_WORD_LIMIT words.

    Counts the words sum_{i <= class} rank^i arithmetically and stops as soon
    as the limit is passed, so a huge configuration is refused at once. A
    rank or class that is not an int raises BadRankError / OutOfClassError.
    """
    check_config_types(rank, nclass)
    if rank < 1:
        return  # hall_basis reports the bad rank
    words, layer = 0, 1
    for _ in range(nclass + 1):
        words += layer
        if words > ENGINE_WORD_LIMIT:
            raise ScaleLimitError(
                f"N({rank},{nclass}) has more than {ENGINE_WORD_LIMIT} words up to "
                f"length {nclass}, the most a Hall basis or the series engine takes"
            )
        layer *= rank


@lru_cache(maxsize=None, typed=True)
def hall_basis(rank: int, nclass: int) -> HallBasis:
    """Build the Hall basis for the given rank and nilpotency class."""
    check_config_types(rank, nclass)
    if rank < 2:
        raise BadRankError(f"rank {rank} needs at least 2 generators")
    if nclass < 1:
        raise OutOfClassError(f"nilpotency class {nclass} must be at least 1")
    check_engine_scale(rank, nclass)

    entries: list[BasicCommutator] = []
    counts = [0] * nclass
    for j in range(1, rank + 1):
        entries.append(
            BasicCommutator(pair=(1, j), weight=1, position=j - 1, generator=j)
        )
    counts[0] = rank

    for w in range(2, nclass + 1):
        fresh = []
        for u in entries:
            if u.weight >= w:
                break  # entries are weight-sorted
            target = w - u.weight
            for v in entries:
                if v.weight > target:
                    break
                if v.weight != target:
                    continue
                # u > v in (weight, discovery) order
                if u.position <= v.position:
                    continue
                if not u.is_leaf and u.parts[1].position > v.position:
                    continue
                fresh.append((u, v))
        for k, (u, v) in enumerate(fresh):
            entries.append(
                BasicCommutator(
                    pair=(w, k + 1),
                    weight=w,
                    position=len(entries),
                    parts=(u, v),
                )
            )
        counts[w - 1] = len(fresh)

    return HallBasis(rank, nclass, tuple(entries), tuple(counts))
