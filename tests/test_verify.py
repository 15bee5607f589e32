"""Tests for the aggregated property-check runner."""

import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path
from random import Random

import pytest
from lie_oracle import sign_flipped

import hallforge
from hallforge import verify
from hallforge.canonical import to_binomial_basis
from hallforge.cli import main
from hallforge.deformation import (
    DeformedGroup,
    ExtensionCocycle,
    PolynomialCocycle,
    SplittingIsomorphism,
    zero_cocycle,
)
from hallforge.errors import HallforgeError, OutOfClassError
from hallforge.group import FreeNilpotentGroup
from hallforge.lie import free_nilpotent_lie, weight_two_width
from hallforge.rings import QQ, ZZ, IntegerRing
from hallforge.series import series_pow
from hallforge.verify import (
    CheckResult,
    _axiom_rows,
    centralizer_suite,
    deformation_suite,
    group_suite,
    lie_suite,
    poly_suite,
    ring_suite,
    run_all,
    series_suite,
    words_suite,
)


def test_run_all_passes_small_config():
    results = run_all(2, 2, ZZ, seed=3, samples=25)
    assert results
    failing = [r for r in results if not r.ok]
    assert failing == []
    names = [r.name for r in results]
    assert len(names) == len(set(names))


def test_run_all_rejects_non_positive_samples():
    with pytest.raises(HallforgeError, match="samples"):
        run_all(2, 2, ZZ, seed=0, samples=0)


def test_run_all_refuses_class_one():
    # the command line refuses class 1 too; here the suites would fail on it
    with pytest.raises(OutOfClassError, match="class >= 2"):
        run_all(2, 1)


@pytest.mark.parametrize(
    "suite",
    [
        lambda: series_suite(2, 1, ZZ, Random(0)),
        lambda: poly_suite(2, 1, Random(0)),
        lambda: lie_suite(2, 1),
        lambda: group_suite(2, 1, ZZ, Random(0)),
        lambda: words_suite(2, 1, ZZ, Random(0)),
        lambda: deformation_suite(2, 1, Random(0)),
        lambda: centralizer_suite(2, 1, ZZ, Random(0)),
    ],
    ids=["series", "poly", "lie", "group", "words", "deformation", "centralizer"],
)
def test_suites_refuse_class_one(suite):
    # at class 1 every bracket truncates to zero: nothing for any suite to check
    with pytest.raises(OutOfClassError, match="class >= 2"):
        suite()


@pytest.mark.parametrize(
    "suite",
    [
        lambda rng, n: ring_suite(rng, n),
        lambda rng, n: series_suite(2, 2, ZZ, rng, n),
        lambda rng, n: group_suite(2, 2, ZZ, rng, n),
        lambda rng, n: words_suite(2, 2, ZZ, rng, n),
        lambda rng, n: poly_suite(2, 2, rng, n),
        lambda rng, n: deformation_suite(2, 2, rng, n),
        lambda rng, n: centralizer_suite(2, 2, ZZ, rng, n),
    ],
    ids=["ring", "series", "group", "words", "poly", "deformation", "centralizer"],
)
@pytest.mark.parametrize("samples", [0, -1])
def test_suites_reject_non_positive_samples(suite, samples):
    with pytest.raises(HallforgeError, match="samples"):
        suite(Random(0), samples)


@pytest.mark.parametrize("samples", [0, -5])
def test_centralizer_structure_check_refuses_non_positive_samples(samples):
    with pytest.raises(HallforgeError, match="samples"):
        verify.centralizer_structure_check(FreeNilpotentGroup(2, 2), 1, Random(0), samples=samples)


@pytest.mark.parametrize("rank, nclass", [(2, 3), (3, 3)])
def test_centralizer_rows_fail_when_is_central_lies(monkeypatch, rank, nclass):
    # the built elements u_1j^a * z always commute with u_1j, so the
    # decomposition law meets a commuting element on every sample
    monkeypatch.setattr(FreeNilpotentGroup, "is_central", lambda self, g: False)
    rows = centralizer_suite(rank, nclass, ZZ, Random(0))
    assert len(rows) == rank
    assert not any(row.ok for row in rows)
    shown = r"first counterexample: x=\(.*\), a=-?\d+, z=\(.*\)"
    assert all(re.fullmatch(shown, row.detail) for row in rows)


def test_samples_caps_every_sampled_count(monkeypatch):
    counts = []

    def recorded(owner, attr, count_of):
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            counts.append(count_of(attr, args, kwargs))
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, attr, wrapper)

    # a sampled row is named by its laws, a library check by its own name
    recorded(verify, "_sampled_rows", lambda attr, args, kwargs: (" / ".join(args[2]), args[0]))
    library_checks = ((verify, "centralizer_structure_check"),)
    for owner, attr in library_checks:
        recorded(owner, attr, lambda attr, args, kwargs: (attr, kwargs["samples"]))
    assert all(r.ok for r in run_all(2, 3, ZZ, seed=0, samples=1))
    assert {attr for _, attr in library_checks} <= {name for name, _ in counts}
    # one point for each of the five product coordinates, one sample for each of the two generators
    binomial = "poly: binomial form evaluates like the monomial form"
    centralizers = "deform: generator centralizers are abelian extensions"
    assert [(name, n) for name, n in counts if n != 1] == [(binomial, 5), (centralizers, 2)]


def test_run_all_rational_ring_skips_integer_only_suites():
    results = run_all(2, 2, QQ, seed=4, samples=20)
    assert all(r.ok for r in results)
    assert not any(r.name.startswith("deform") for r in results)


def test_individual_suites_return_results():
    rng = Random(5)
    assert all(r.ok for r in ring_suite(rng, samples=30))
    assert all(r.ok for r in series_suite(2, 2, ZZ, rng, samples=30))
    assert all(r.ok for r in group_suite(2, 2, ZZ, rng, samples=30))
    assert all(r.ok for r in deformation_suite(2, 2, rng, samples=30))
    assert all(r.ok for r in lie_suite(2, 2))


def test_check_result_fields():
    r = CheckResult("sample", True)
    assert r.name == "sample"
    assert r.ok
    assert r.detail == ""


def test_run_all_deterministic_for_fixed_seed():
    a = run_all(2, 2, ZZ, seed=9, samples=15)
    b = run_all(2, 2, ZZ, seed=9, samples=15)
    assert a == b


def test_axiom_rows_name_the_first_counterexample():
    base = FreeNilpotentGroup(2, 2)
    # f(a, b) = a * binom(b, 2) is normalized but fails the cocycle identity
    bad = PolynomialCocycle.from_tables([{(1, 2): 1}])
    dgrp = DeformedGroup(base, [bad, zero_cocycle(1)], check=False)
    assoc, ident, _ = _axiom_rows(dgrp, Random(0), 20, ("assoc", "identity", "inverse"))
    assert ident.ok and ident.detail == ""
    assert not assoc.ok
    found = re.fullmatch(
        r"first counterexample: g=\((.*)\), h=\((.*)\), k=\((.*)\)", assoc.detail
    )
    g, h, k = (dgrp.element([int(v) for v in c.split(", ")]) for c in found.groups())
    assert dgrp.mul(dgrp.mul(g, h), k) != dgrp.mul(g, dgrp.mul(h, k))


def _off_by_one(f):
    return lambda *args: f(*args) + 1


def _plus_one(to_table):
    """to_table with 1 added to the constant term of every binomial-basis table."""

    def shifted(poly):
        table = dict(to_table(poly))
        zero = (0,) * len(poly.vars)
        table[zero] = table.get(zero, 0) + 1
        return table

    return shifted


def _plus_one_each(value):
    """value with 1 added to every component it returns."""
    return lambda *args: tuple(v + 1 for v in value(*args))


# one sampled row per suite, broken through the library call its law makes
BROKEN_ROWS = [
    (
        lambda rng: ring_suite(rng, 3),
        lambda mp: mp.setattr(IntegerRing, "binom", _off_by_one(IntegerRing.binom)),
        "ring: polynomial binom specializes to integer binom",
        r"a=-?\d+, k=\d+",
    ),
    (
        lambda rng: series_suite(2, 3, ZZ, rng, 3),
        lambda mp: mp.setattr(verify, "series_pow", lambda s, a, ring: series_pow(s, a + 1, ring)),
        "series: power additive in the exponent",
        r"s=Series\(.*\), a=-?\d+, b=-?\d+",
    ),
    (
        lambda rng: group_suite(2, 3, ZZ, rng, 3),
        lambda mp: mp.setattr(
            FreeNilpotentGroup,
            "weight_block_coords",
            lambda self, g, i: tuple(c * c for c in g.coords[: self.rank]),
        ),
        "group: weight-1 coordinates add",
        r"g=\(-?\d+(, -?\d+){4}\), h=\(-?\d+(, -?\d+){4}\)",
    ),
    (
        lambda rng: words_suite(2, 3, ZZ, rng, 3),
        lambda mp: mp.setattr(verify, "evaluate_word", lambda grp, word: grp.identity()),
        "words: collection matches series evaluation",
        r"word=\[\(\(\d, \d\), -?\d\)(, \(\(\d, \d\), -?\d\))*\]",
    ),
    (
        lambda rng: words_suite(2, 3, ZZ, rng, 3),
        lambda mp: mp.setattr(verify, "petresco_identity_holds", lambda grp, xs, n, taus: False),
        "words: power-product identity for n = 1..6",
        r"xs=\[\(-?\d+(, -?\d+){4}\), \(-?\d+(, -?\d+){4}\)\], "
        r"taus=\[\(-?\d+(, -?\d+){4}\)(, \(-?\d+(, -?\d+){4}\)){2}\]",
    ),
    (
        lambda rng: poly_suite(2, 3, rng, 3),
        lambda mp: mp.setattr(verify, "to_binomial_basis", _plus_one(to_binomial_basis)),
        "poly: binomial form evaluates like the monomial form",
        r"f=0, point=\[-?\d(, -?\d)*\]",
    ),
    (
        lambda rng: deformation_suite(2, 3, rng, 3),
        lambda mp: mp.setattr(ExtensionCocycle, "cocycle_identity_holds", lambda self, *coords: False),
        "deform: extension cocycle identity",
        r"g=\(.*\), h=\(.*\), k=\(.*\)",
    ),
    (
        lambda rng: deformation_suite(2, 3, rng, 3),
        lambda mp: mp.setattr(SplittingIsomorphism, "to_deformed", lambda self, x: self.deformed.element(x.coords)),
        "deform: splitting isomorphism verified",
        r"g=\(-?\d+(, -?\d+){4}\), h=\(-?\d+(, -?\d+){4}\), x=\(-?\d+(, -?\d+){4}\)",
    ),
    (
        lambda rng: deformation_suite(2, 3, rng, 3),
        lambda mp: mp.setattr(ExtensionCocycle, "value", _plus_one_each(ExtensionCocycle.value)),
        "deform: extension build matches the deformed product",
        r"g=\(-?\d+(, -?\d+){4}\), h=\(-?\d+(, -?\d+){4}\)",
    ),
    (
        lambda rng: deformation_suite(2, 3, rng, 3),
        lambda mp: mp.setattr(DeformedGroup, "centralizer_law_holds", lambda self, j, a, b, z1, z2: False),
        "deform: generator centralizers are abelian extensions",
        r"j=1, a=-?\d+, b=-?\d+, z1=\[-?\d+, -?\d+\], z2=\[-?\d+, -?\d+\]",
    ),
    (
        lambda rng: centralizer_suite(2, 3, ZZ, rng, 3),
        lambda mp: mp.setattr(FreeNilpotentGroup, "commutator", lambda self, g, h: g),
        "centralizer: generator 1 decomposes as its powers times the center",
        r"a=-?\d+, z=\(-?\d+(, -?\d+){4}\)",
    ),
]


@pytest.mark.parametrize(
    "suite, breaks, name, shown",
    BROKEN_ROWS,
    ids=[
        "ring", "series", "group", "words", "power-product", "poly", "deformation",
        "iso", "extension-match", "deformed-centralizer", "centralizer",
    ],
)
def test_failing_sampled_rows_name_their_first_counterexample(monkeypatch, suite, breaks, name, shown):
    breaks(monkeypatch)
    row = {r.name: r for r in suite(Random(0))}[name]
    assert not row.ok
    assert re.fullmatch(f"first counterexample: {shown}", row.detail), row.detail


def test_deformed_centralizer_row_names_the_generators_whose_split_fails(monkeypatch):
    name = "deform: generator centralizers are abelian extensions"
    monkeypatch.setattr(DeformedGroup, "centralizer_split_holds", lambda self, j: j != 2)
    row = {r.name: r for r in deformation_suite(3, 2, Random(0), 3)}[name]
    assert not row.ok
    assert row.detail == "generators [2]: the split does not give the products on the box -8..8"


def test_lie_suite_names_the_first_differing_constant(monkeypatch):
    flipped = sign_flipped(free_nilpotent_lie(2, 2), [1, 1, -1])
    monkeypatch.setattr(verify, "lazard_lie_ring", lambda rank, nclass: flipped)
    rows = {r.name: r for r in lie_suite(2, 2)}
    row = rows["lie: group and algebra structure constants agree"]
    assert not row.ok
    assert row.detail == "first difference: [e_1, e_0] at e_2: group side -1, algebra side 1"


@pytest.mark.parametrize("rank", [2, 4])
def test_lie_width_row_fails_on_a_wrong_width(monkeypatch, rank):
    row = "lie: f(e1,e2) + f(e3,e4) + ... has weight-2 width rank // 2"
    assert {r.name: r for r in lie_suite(rank, 2)}[row].ok
    monkeypatch.setattr(verify, "weight_two_width", _off_by_one(weight_two_width))
    failed = {r.name: r for r in lie_suite(rank, 2)}[row]
    assert not failed.ok and failed.detail == ""


def test_every_public_name_resolves():
    # the lazy verify names included; a name removed from a module must leave __all__ too
    missing = [name for name in hallforge.__all__ if not hasattr(hallforge, name)]
    assert missing == []
    assert len(set(hallforge.__all__)) == len(hallforge.__all__)


def test_package_import_leaves_verify_unloaded():
    # verify loads on first use of run_all / CheckResult, not with the package
    code = (
        "import sys, hallforge\n"
        "assert 'hallforge.verify' not in sys.modules, 'verify loaded eagerly'\n"
        "from hallforge import CheckResult, run_all\n"
        "assert 'hallforge.verify' in sys.modules\n"
        "assert run_all is hallforge.verify.run_all and CheckResult is hallforge.verify.CheckResult\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


# Each suite at (2,3) over ZZ with samples=5 on one shared Random(0); the
# value after each suite is a SHA-256 prefix of repr(rng.getstate()), so a
# suite that draws one value more or less than before moves every later pin.
RNG_STATE_PINS = (
    ("ring", lambda rng: ring_suite(rng, 5), "3852f5cbc75f60e1"),
    ("series", lambda rng: series_suite(2, 3, ZZ, rng, 5), "5cf421eab243dfb2"),
    ("group", lambda rng: group_suite(2, 3, ZZ, rng, 5), "3e1d464b12ed6110"),
    ("words", lambda rng: words_suite(2, 3, ZZ, rng, 5), "752b5d7bfea6af04"),
    ("poly", lambda rng: poly_suite(2, 3, rng, 5), "30eec07094f1630a"),
    ("deformation", lambda rng: deformation_suite(2, 3, rng, 5), "3d60184b16f015e3"),
    ("centralizer", lambda rng: centralizer_suite(2, 3, ZZ, rng, 5), "207db111ffe1c0f3"),
)


# The same at (2,2) with the default counts: the work a plain `verify` does.
DEFAULT_RNG_STATE_PINS = (
    ("ring", lambda rng: ring_suite(rng), "8c24df15ab541cc5"),
    ("series", lambda rng: series_suite(2, 2, ZZ, rng), "bf588e5baa5252f3"),
    ("group", lambda rng: group_suite(2, 2, ZZ, rng), "240e8eddc71c6ae4"),
    ("words", lambda rng: words_suite(2, 2, ZZ, rng), "2b83758f338749d8"),
    ("poly", lambda rng: poly_suite(2, 2, rng), "cbcbed04f15111d9"),
    ("deformation", lambda rng: deformation_suite(2, 2, rng), "5567fa7e8548b41d"),
    ("centralizer", lambda rng: centralizer_suite(2, 2, ZZ, rng), "e61ce358af6b96c7"),
)


def _assert_rng_states(pins):
    rng = Random(0)
    for name, suite, pinned in pins:
        rows = suite(rng)
        assert all(r.ok for r in rows), name
        state = hashlib.sha256(repr(rng.getstate()).encode()).hexdigest()[:16]
        assert state == pinned, name


def test_suites_draw_pinned_amounts_of_randomness():
    _assert_rng_states(RNG_STATE_PINS)


def test_default_counts_draw_pinned_amounts_of_randomness():
    _assert_rng_states(DEFAULT_RNG_STATE_PINS)


# SHA-256 of `verify ... --json`; each test is named by its arguments alone
VERIFY_DIGESTS = (
    ("--rank 2 --class 2 --seed 0", "932d9da1fb78875f5a1309d16ed66e7fb45f6c03f58379d703c45a1f4c7949d8"),
    ("--rank 2 --class 3 --seed 0 --samples 5", "eaa3f1b183042aaa65b627ffd0c0ff77ebd6c2b37731f4b732af7f8b4c056ac9"),
    ("--rank 2 --class 3 --seed 7 --samples 5", "10a2b3004827ea3a689266a55b67647a160e32a189c3e31d293faa40753158c2"),
    ("--rank 3 --class 2 --seed 0 --samples 5", "790e2ca80619ece8ab0cd0e75cc4ec454e4d707d5d8fba4e72be1928634f62f6"),
    ("--rank 3 --class 2 --seed 7 --ring q --samples 5", "968c658654d29c47bce787478099acce302a9dd578a097eb1c5b7cdd600cb639"),
    ("--rank 2 --class 4 --seed 0 --samples 5", "9bad9c435b082f924495a3d2f9096ee479b5736ba1c0675e9d64d494837d4428"),
)


@pytest.mark.parametrize(
    "args, pinned", [pytest.param(args, pinned, id=args) for args, pinned in VERIFY_DIGESTS]
)
def test_verify_json_digest_pinned(capsys, args, pinned):
    assert main(["verify", *args.split(), "--json"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == pinned
