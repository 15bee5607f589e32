"""Tests for the aggregated property-check runner."""

import os
import re
import subprocess
import sys
from pathlib import Path
from random import Random

import pytest
from lie_oracle import sign_flipped

from hallforge import verify
from hallforge.deformation import DeformedGroup, PolynomialCocycle, zero_cocycle
from hallforge.errors import HallforgeError
from hallforge.group import FreeNilpotentGroup
from hallforge.lie import free_nilpotent_lie
from hallforge.rings import QQ, ZZ
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


def test_lie_suite_names_the_first_differing_constant(monkeypatch):
    flipped = sign_flipped(free_nilpotent_lie(2, 2), [1, 1, -1])
    monkeypatch.setattr(verify, "lazard_lie_ring", lambda rank, nclass: flipped)
    rows = {r.name: r for r in lie_suite(2, 2)}
    row = rows["lie: group and algebra structure constants agree"]
    assert not row.ok
    assert row.detail == "first difference: [e_1, e_0] at e_2: group side -1, algebra side 1"


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
