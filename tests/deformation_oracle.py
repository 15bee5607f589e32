"""Reference code for the deformation layer, kept only for the tests.

IntegerSplitting is the earlier splitting of a cocycle over the integers, by
the lazy recursion psi(n + 1) = psi(n) + f(n, 1), and squaring_pow is the
earlier deformed power, by repeated squaring of the deformed product.
hallforge.deformation must give exactly what these give: the closed-form
split on integers, and deformed powers by integer exponents. The strategy at
the end draws splittings psi as integer tables.
"""

from __future__ import annotations

from hypothesis import strategies as st

from hallforge.rings import ZZ


class IntegerSplitting:
    """The canonical splitting of a symmetric cocycle over the integers.

    psi(0) = 0, psi(n+1) = psi(n) + f(n, 1), psi(n-1) = psi(n) - f(n-1, 1).
    The coboundary equation for all integers follows from the cocycle
    identity by induction. Values are computed on demand and kept.
    """

    def __init__(self, cocycle):
        self.cocycle = cocycle
        self._vals = {0: (0,) * cocycle.n_components}
        self._hi = 0
        self._lo = 0

    def _f(self, a, b):
        return tuple(int(v) for v in self.cocycle.value(a, b, ZZ))

    def __call__(self, a: int):
        while self._hi < a:
            step = self._f(self._hi, 1)
            self._vals[self._hi + 1] = tuple(p + s for p, s in zip(self._vals[self._hi], step))
            self._hi += 1
        while self._lo > a:
            step = self._f(self._lo - 1, 1)
            self._vals[self._lo - 1] = tuple(p - s for p, s in zip(self._vals[self._lo], step))
            self._lo -= 1
        return self._vals[a]


def squaring_pow(dgrp, g, exponent: int):
    """Integer powers by repeated deformed multiplication."""
    if exponent < 0:
        return squaring_pow(dgrp, dgrp.inv(g), -exponent)
    acc = dgrp.identity()
    base = g
    n = exponent
    while n:
        if n & 1:
            acc = dgrp.mul(acc, base)
        n >>= 1
        if n:
            base = dgrp.mul(base, base)
    return acc


def coboundary_tables(psi_tables):
    """The arity-2 tables of f = delta psi, by Vandermonde's identity.

    binom(a+b, n) - binom(a, n) - binom(b, n) = sum over i + j = n with
    i, j >= 1 of binom(a, i) binom(b, j).
    """
    out = []
    for psi in psi_tables:
        f: dict = {}
        for (n,), c in psi.items():
            for i in range(1, n):
                f[(i, n - i)] = f.get((i, n - i), 0) + c
        out.append(f)
    return out


# -- strategies -------------------------------------------------------------------


def psi_tables(max_width=3):
    """One integer arity-1 table of binomial degrees 2..5 per component."""
    table = st.dictionaries(
        st.integers(2, 5).map(lambda n: (n,)),
        st.integers(-9, 9).filter(bool),
        max_size=4,
    )
    return st.lists(table, min_size=1, max_size=max_width)
