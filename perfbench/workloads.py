"""The four workloads: set-up, the timed operations, and their checks.

Each workload turns generated specs (see gen.py) into library calls. One
operation is one library call, timed on its own by `Timer`. The checks run
after the timed region and compare every result with an independent path:
engine, deformed and collector results and the library's own table
evaluations against the canonical tables evaluated by `TableEvaluator`,
derived tables against engine products at seeded points, and Lie results
against the known answers.

Library functions are always looked up on their module at call time, so the
traced run sees the wrappers that spans.py installs.
"""

from __future__ import annotations

import math
from fractions import Fraction
from time import perf_counter

from hallforge import basis, canonical, deformation, group, lie, words
from hallforge.rings import QQ, ZZ

from perfbench.gen import weight_counts
from perfbench.spans import ROOT_OP


class Op:
    """One timed library call and what its check needs."""

    __slots__ = ("kind", "ci", "args", "seconds", "result", "error")

    def __init__(self, kind, ci, args, seconds, result, error):
        self.kind = kind
        self.ci = ci
        self.args = args
        self.seconds = seconds
        self.result = result
        self.error = error


class Timer:
    """Times one call per operation and appends an Op; errors are recorded, not raised."""

    def __init__(self, ops: list, recorder=None):
        self.ops = ops
        self.recorder = recorder

    def __call__(self, kind, ci, args, fn, *fargs):
        t0 = perf_counter()
        try:
            if self.recorder is None:
                result = fn(*fargs)
            else:
                result = self.recorder.call(ROOT_OP, fn, *fargs)
            error = None
        except Exception as exc:  # a raising operation counts as failed
            result, error = None, repr(exc)
        seconds = perf_counter() - t0
        # group elements are kept as coordinates; the element is returned for chaining
        self.ops.append(Op(kind, ci, args, seconds, getattr(result, "coords", result), error))
        return result


def reset_caches():
    """Empty every lru cache of the library, so the next set-up starts cold."""
    for fn in (
        basis.hall_basis,
        group._engine_tables,
        canonical.derive_hall_polynomials,
        canonical.derive_structure_polys,
        lie.lazard_lie_ring,
        lie.free_nilpotent_lie,
    ):
        fn.cache_clear()


def _binom(a, r: int):
    if isinstance(a, int):
        return math.comb(a, r) if a >= 0 else (-1) ** r * math.comb(r - a - 1, r)
    return math.prod(a - i for i in range(r)) / math.factorial(r)


class TableEvaluator:
    """The product and power tables of one configuration, evaluated directly.

    A check-only path: it reads the integer coefficients that the library
    derived and evaluates sum c * prod binom(x_v, r_v) itself, independent
    of BinomialTable.evaluate, of the collector and of the series engine.
    """

    def __init__(self, cp):
        def sparse(tables):
            return [
                [(c, [(v, r) for v, r in enumerate(exps) if r]) for exps, c in t.coeffs]
                for t in tables
            ]

        self.p = sparse(cp.p_tables)
        self.q = sparse(cp.q_tables)

    @staticmethod
    def _evaluate(tables, point):
        memo = {}
        out = []
        for terms in tables:
            total = 0
            for c, factors in terms:
                for v, r in factors:
                    b = memo.get((v, r))
                    if b is None:
                        b = memo[(v, r)] = _binom(point[v], r)
                    c = c * b
                    if not c:
                        break
                total += c
            out.append(total)
        return out

    def mul(self, a, b):
        return self._evaluate(self.p, list(a) + list(b))

    def pow(self, a, e):
        return self._evaluate(self.q, list(a) + [e])

    def word(self, letters, flat):
        """The product of u_pair^e over the letters, folded left to right."""
        acc = [0] * len(self.p)
        for pair, e in letters:
            unit = [0] * len(self.p)
            unit[flat(pair)] = e
            acc = self.mul(acc, unit)
        return acc


def _table_rows(table: dict):
    return sorted([list(k), sorted(v.items())] for k, v in table.items())


class Workload:
    name = ""

    def __init__(self, configs):
        self.configs = tuple(tuple(rc) for rc in configs)

    def build(self):
        """Set-up: everything the timed operations need, cold."""
        raise NotImplementedError

    def run_block(self, state, specs, timed: Timer):
        raise NotImplementedError

    def references(self, state):
        """Objects that exist only to check results (built after timing)."""
        return state

    def check(self, state, ref, op) -> bool:
        raise NotImplementedError

    def output(self, op):
        """Canonical-JSON-ready form of an operation's result."""
        return op.result


class Arith(Workload):
    """Numeric Hall-coordinate operations through the series engine."""

    name = "arith"

    def build(self):
        out = []
        for r, c in self.configs:
            grp = group.FreeNilpotentGroup(r, c)
            n_c = grp.basis.counts[-1]
            cocycles = [deformation.product_cocycle(n_c, 0)]
            cocycles += [deformation.zero_cocycle(n_c)] * (r - 1)
            out.append((
                grp,
                group.FreeNilpotentGroup(r, c, QQ),
                deformation.DeformedGroup(grp, cocycles),
            ))
        return out

    def run_block(self, state, specs, timed):
        for kind, ci, *args in specs:
            grp, grp_q, dgrp = state[ci]
            if kind == "zz_mul":
                timed(kind, ci, args, grp.mul_coords, *args)
            elif kind == "zz_pow":
                timed(kind, ci, args, grp.pow_coords, *args)
            elif kind == "zz_inv":
                timed(kind, ci, args, grp.inv_coords, args[0])
            elif kind == "qq_pow":
                a, (p, q) = args
                timed(kind, ci, (a, Fraction(p, q)), grp_q.pow_coords, a, Fraction(p, q))
            elif kind == "def_mul":
                timed(kind, ci, args, dgrp.mul, dgrp.element(args[0]), dgrp.element(args[1]))
            elif kind == "chain":
                p0, p1, p2 = (grp.element(a) for a in args)
                x1 = timed("el_mul", ci, (p0.coords, p1.coords), grp.mul, p0, p1)
                if x1 is None:
                    continue
                x2 = timed("el_mul", ci, (x1.coords, p2.coords), grp.mul, x1, p2)
                if x2 is None:
                    continue
                timed("el_comm", ci, (x2.coords, p1.coords), grp.commutator, x2, p1)
            else:
                raise ValueError(f"unknown arith op {kind}")

    def references(self, state):
        return [TableEvaluator(canonical.derive_hall_polynomials(r, c)) for r, c in self.configs]

    def check(self, state, ref, op):
        ev = ref[op.ci]
        a = op.args
        if op.kind in ("zz_mul", "el_mul"):
            want = ev.mul(a[0], a[1])
        elif op.kind in ("zz_pow", "qq_pow"):
            want = ev.pow(a[0], a[1])
        elif op.kind == "zz_inv":
            want = ev.pow(a[0], -1)
        elif op.kind == "def_mul":
            # product_cocycle(n_c, 0) on generator 1 adds a_11 * b_11 to the
            # first top-weight coordinate
            r, c = self.configs[op.ci]
            want = ev.mul(a[0], a[1])
            want[sum(weight_counts(r, c)[:-1])] += a[0][0] * a[1][0]
        elif op.kind == "el_comm":
            g, h = a
            want = ev.mul(ev.mul(ev.mul(ev.pow(g, -1), ev.pow(h, -1)), g), h)
        else:
            return False
        return list(op.result) == want


class Symbolic(Workload):
    """Cold derivations of the Hall and structure polynomials over PolyRing."""

    name = "symbolic"

    def build(self):
        return [group.FreeNilpotentGroup(r, c) for r, c in self.configs]

    def run_block(self, state, specs, timed):
        for kind, ci, points in specs:
            if kind == "hall":
                derive = canonical.derive_hall_polynomials
            elif kind == "structure":
                derive = canonical.derive_structure_polys
            else:
                raise ValueError(f"unknown symbolic op {kind}")
            derive.cache_clear()
            timed(kind, ci, points, derive, *self.configs[ci])

    def check(self, state, ref, op):
        grp = state[op.ci]
        if op.kind == "hall":
            cp = op.result
            return all(
                grp.mul_coords(a, b) == cp.mul_coords(a, b, ZZ)
                and grp.pow_coords(a, e) == cp.pow_coords(a, e, ZZ)
                for a, b, e in op.args
            )
        sp = op.result
        keys = sorted(sp.tables)
        for pick, a, b in op.args:
            high, low = keys[pick % len(keys)]
            want = [0] * grp.dimension
            for pair, e in sp.tail_letters(high, low, a, b, ZZ):
                want[grp.basis.flat(pair)] = e
            got = grp.commutator(grp.pow(grp.basic(high), a), grp.pow(grp.basic(low), b))
            if list(got.coords) != want:
                return False
        return True

    def output(self, op):
        if op.kind == "hall":
            return [[t.coeffs for t in op.result.p_tables], [t.coeffs for t in op.result.q_tables]]
        return sorted(
            [list(key), [[pair, t.coeffs] for pair, t in tails]]
            for key, tails in op.result.tables.items()
        )


class Collect(Workload):
    """Table-driven collection and table evaluation; the engine is off the timed path."""

    name = "collect"

    def build(self):
        out = []
        for r, c in self.configs:
            grp = group.FreeNilpotentGroup(r, c)
            sp = canonical.derive_structure_polys(r, c)
            cp = canonical.derive_hall_polynomials(r, c)
            out.append((grp, cp, words.Collector(grp, sp)))
        return out

    def run_block(self, state, specs, timed):
        for kind, ci, *args in specs:
            _grp, cp, collector = state[ci]
            if kind == "collect":
                timed(kind, ci, args[0], collector.collect, args[0])
            elif kind == "cp_mul":
                timed(kind, ci, args, cp.mul_coords, args[0], args[1], ZZ)
            elif kind == "cp_pow":
                timed(kind, ci, args, cp.pow_coords, args[0], args[1], ZZ)
            else:
                raise ValueError(f"unknown collect op {kind}")

    def references(self, state):
        return [TableEvaluator(cp) for _grp, cp, _collector in state]

    def check(self, state, ref, op):
        ev = ref[op.ci]
        if op.kind == "collect":
            want = ev.word(op.args, state[op.ci][0].basis.flat)
        elif op.kind == "cp_mul":
            want = ev.mul(*op.args)
        else:
            want = ev.pow(*op.args)
        return list(op.result) == want


class Lie(Workload):
    """The cold graded-Lie pipeline, dominated by exact Fraction linear algebra."""

    name = "lie"

    def build(self):
        return [group.FreeNilpotentGroup(r, c) for r, c in self.configs]

    def run_block(self, state, specs, timed):
        for kind, ci, j in specs:
            if kind != "pipeline":
                raise ValueError(f"unknown lie op {kind}")
            r, c = self.configs[ci]
            lie.lazard_lie_ring.cache_clear()
            lazard = timed("lazard", ci, (), lie.lazard_lie_ring, r, c)
            lie.free_nilpotent_lie.cache_clear()
            free = timed("free", ci, (lazard,), lie.free_nilpotent_lie, r, c)
            if lazard is None or free is None:
                continue
            timed("compare", ci, (), lie.compare_graded_lie, lazard, free)
            bil = timed("bilinear", ci, (), lie.bilinear_from_lie, free)
            if bil is None:
                continue
            timed("endo", ci, (bil,), lie.endomorphism_pair_space, bil)
            timed("kernels", ci, (j,), lie.centralizer_weight_kernels, free, j)

    def check(self, state, ref, op):
        counts = weight_counts(*self.configs[op.ci])
        res = op.result
        if op.kind == "lazard":
            return res.dims == counts and res.check_antisymmetry()
        if op.kind == "free":
            # two independent constructions must give identical constants
            return res.dims == counts and res.table == op.args[0].table
        if op.kind == "compare":
            return res is True
        if op.kind == "bilinear":
            return (
                res.domain_dim == sum(counts[:-1])
                and res.codomain_dim == sum(counts[1:])
                and res.is_full()
            )
        if op.kind == "endo":
            return (
                len(res) == 1
                and res[0].scalar_value() is not None
                and lie.endo_pair_satisfies(op.args[0], res[0])
            )
        if op.kind == "kernels":
            j = op.args[0]
            line = res[0]
            return (
                len(line) == 1
                and bool(line[0][j - 1])
                and not any(v for i, v in enumerate(line[0]) if i != j - 1)
                and all(not k for k in res[1:])
            )
        return False

    def output(self, op):
        res = op.result
        if op.kind in ("lazard", "free"):
            return [list(res.dims), _table_rows(res.table)]
        if op.kind == "bilinear":
            return [res.domain_dim, res.codomain_dim, _table_rows(res.tensor)]
        if op.kind == "endo":
            return [[p.phi1, p.phi0] for p in res]
        return res


WORKLOADS = {w.name: w for w in (Arith, Symbolic, Collect, Lie)}
