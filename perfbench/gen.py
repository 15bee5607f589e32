"""Seeded input generator for the benchmark workloads.

Every input is plain data (ints, index pairs, exponent pairs) made from the
workload name, the seed and the block index alone. The generator never
imports hallforge, so the library sees only the generated inputs, and a
seed picked after a change was written runs against it unchanged.

A block is the unit the closed loop runs: a fixed multiset of operation
kinds per configuration, in a seeded order, with fresh seeded operands.
Because every block has the same mix, a run that completes more or fewer
blocks still reports latencies of the same mix.
"""

from __future__ import annotations

import hashlib
import json
from random import Random

ENTRY = 9  # operand entries and exponents lie in [-ENTRY, ENTRY]

DEFAULT_CONFIGS = {
    "arith": ((3, 3), (2, 5), (3, 4)),
    "symbolic": ((3, 3), (2, 5), (3, 4), (4, 3)),
    "collect": ((3, 3), (2, 5), (3, 4)),
    "lie": ((3, 3), (2, 5), (4, 2)),
}


def _mobius(n: int) -> int:
    out, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    return -out if n > 1 else out


def weight_counts(rank: int, nclass: int) -> tuple[int, ...]:
    """Basic commutators per weight 1..nclass (Witt's necklace count)."""
    return tuple(
        sum(_mobius(d) * rank ** (w // d) for d in range(1, w + 1) if w % d == 0) // w
        for w in range(1, nclass + 1)
    )


def _coords(rng: Random, dim: int) -> list[int]:
    return [rng.randint(-ENTRY, ENTRY) for _ in range(dim)]


def _nonzero(rng: Random) -> int:
    return rng.choice([e for e in range(-ENTRY, ENTRY + 1) if e])


def _arith(rng: Random, configs):
    specs = []
    for ci, (r, c) in enumerate(configs):
        dim = sum(weight_counts(r, c))
        specs += [
            ("zz_mul", ci, _coords(rng, dim), _coords(rng, dim)),
            ("zz_pow", ci, _coords(rng, dim), rng.randint(-ENTRY, ENTRY)),
            ("zz_inv", ci, _coords(rng, dim)),
            # three chained element ops: p0*p1, (p0*p1)*p2, [(p0*p1)*p2, p1]
            ("chain", ci, _coords(rng, dim), _coords(rng, dim), _coords(rng, dim)),
            ("qq_pow", ci, _coords(rng, dim), (_nonzero(rng), rng.randint(2, ENTRY))),
            ("def_mul", ci, _coords(rng, dim), _coords(rng, dim)),
        ]
    return specs


def _symbolic(rng: Random, configs):
    specs = []
    for ci, (r, c) in enumerate(configs):
        dim = sum(weight_counts(r, c))
        # check points: (a, b, exponent) for Hall polynomials and
        # (key pick, a, b) for structure tails
        hall_points = [
            (_coords(rng, dim), _coords(rng, dim), rng.randint(-ENTRY, ENTRY))
            for _ in range(2)
        ]
        tail_points = [
            (rng.randrange(1 << 30), _nonzero(rng), _nonzero(rng)) for _ in range(3)
        ]
        specs += [("hall", ci, hall_points), ("structure", ci, tail_points)]
    return specs


def _word(rng: Random, counts) -> list:
    pairs = [(w + 1, j + 1) for w, n in enumerate(counts) for j in range(n)]
    return [(rng.choice(pairs), _nonzero(rng)) for _ in range(rng.randint(20, 80))]


def _collect(rng: Random, configs):
    specs = []
    for ci, (r, c) in enumerate(configs):
        counts = weight_counts(r, c)
        dim = sum(counts)
        specs += [
            ("collect", ci, _word(rng, counts)),
            ("collect", ci, _word(rng, counts)),
            ("cp_mul", ci, _coords(rng, dim), _coords(rng, dim)),
            ("cp_pow", ci, _coords(rng, dim), rng.randint(-ENTRY, ENTRY)),
        ]
    return specs


def _lie(rng: Random, configs):
    # the pipeline of one configuration runs in dependency order; the seed
    # orders the configurations and picks the generator for the kernels
    return [("pipeline", ci, rng.randint(1, r)) for ci, (r, _c) in enumerate(configs)]


_MAKERS = {"arith": _arith, "symbolic": _symbolic, "collect": _collect, "lie": _lie}


def block(workload: str, seed: int, index: int, configs) -> list:
    """The operation specs of block `index`, in their seeded order."""
    rng = Random(f"{workload}/{seed}/{index}")
    specs = _MAKERS[workload](rng, configs)
    rng.shuffle(specs)
    return specs


def digest(obj) -> str:
    """SHA-256 of canonical JSON: sorted keys, no whitespace, tuples as lists,
    other values (Fractions) as str()."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode()).hexdigest()
