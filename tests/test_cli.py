"""Tests for the command-line interface and its exit-code contract."""

import hashlib
import json
import re

import pytest
from poly_oracle import canonical_polys_parse_check

from hallforge import cli
from hallforge.cli import main
from hallforge.deformation import SplittingIsomorphism


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_basis_json_rank2_class5(capsys):
    code, out, _ = run_cli(capsys, "basis", "--rank", "2", "--class", "5", "--json")
    assert code == 0
    obj = json.loads(out)
    assert len(obj["entries"]) == 14
    assert obj["counts"] == [2, 1, 2, 3, 6]


def test_basis_text_output(capsys):
    code, out, _ = run_cli(capsys, "basis", "--rank", "2", "--class", "2")
    assert code == 0
    assert "[x2,x1]" in out


def test_mul_frozen_value(capsys):
    code, out, _ = run_cli(
        capsys,
        "mul",
        "--rank", "2", "--class", "2", "--json",
        '{"r":2,"c":2,"coords":["0","1","0"]}',
        '{"r":2,"c":2,"coords":["1","0","0"]}',
    )
    assert code == 0
    assert json.loads(out)["coords"] == ["1", "1", "1"]


def test_mul_rank_mismatch_is_contract_violation(capsys):
    code, _, err = run_cli(
        capsys,
        "mul",
        "--rank", "2", "--class", "2",
        '{"r":3,"c":2,"coords":["0","0","0","0","0","0"]}',
        '{"r":2,"c":2,"coords":["0","0","0"]}',
    )
    assert code == 2
    assert "error" in err


def test_pow_inv_round_trip(capsys):
    element = '{"r":2,"c":3,"coords":["2","-1","3","0","1"]}'
    code, powed, _ = run_cli(
        capsys, "pow", "--rank", "2", "--class", "3", "--json", element, "-1"
    )
    assert code == 0
    code, inved, _ = run_cli(
        capsys, "inv", "--rank", "2", "--class", "3", "--json", element
    )
    assert code == 0
    assert powed == inved


def test_pow_rational_exponent(capsys):
    element = '{"r":2,"c":2,"coords":["1","1","0"]}'
    code, out, _ = run_cli(
        capsys,
        "pow", "--rank", "2", "--class", "2", "--ring", "q", "--json",
        element, "1/2",
    )
    assert code == 0
    assert json.loads(out)["coords"] == ["1/2", "1/2", "-1/8"]


def test_pow_result_too_long_to_write_exits_two(capsys):
    # the top coordinate of the result has about 8000 digits, past Python's int-to-str limit
    element = '{"r":2,"c":2,"coords":["1","1","0"]}'
    code, out, err = run_cli(capsys, "pow", "--rank", "2", "--class", "2", element, "9" * 4000)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "digits" in err


def test_json_integer_literal_too_long_to_read_exits_two(tmp_path, capsys):
    path = tmp_path / "cocycle.json"
    path.write_text('{"r": 2, "c": 2, "cocycles": [[[{"degrees": [1, 1], "coeff": ' + "9" * 5000 + "}]], [[]]]}")
    code, out, err = run_cli(capsys, "deform", "--rank", "2", "--class", "2", "--cocycle", str(path), "check")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("text", ["1_000", " 7 ", "+5", "\u0663", "1e3", "1e20000000"])
def test_non_written_number_forms_exit_two(tmp_path, capsys, text):
    element = '{"r":2,"c":2,"coords":["1","1","0"]}'
    for ring in ("z", "q"):
        code, out, err = run_cli(capsys, "pow", "--rank", "2", "--class", "2", "--ring", ring, element, text)
        assert code == 2 and out == "" and err.startswith("error:"), ring
        coords = json.dumps({"r": 2, "c": 2, "coords": [text, "0", "0"]})
        code, out, err = run_cli(capsys, "inv", "--rank", "2", "--class", "2", "--ring", ring, coords)
        assert code == 2 and out == "" and err.startswith("error:"), ring
    cocycle = {"r": 2, "c": 2, "cocycles": [[[{"degrees": [1, 1], "coeff": text}]], [[]]]}
    path = tmp_path / "cocycle.json"
    path.write_text(json.dumps(cocycle), encoding="utf-8")
    code, out, err = run_cli(capsys, "deform", "--rank", "2", "--class", "2", "--cocycle", str(path), "check")
    assert code == 2 and out == "" and err.startswith("error:")


def test_collect_word(capsys):
    word = '[{"index":[1,2],"exp":"1"},{"index":[1,1],"exp":"1"}]'
    code, out, _ = run_cli(
        capsys, "collect", "--rank", "2", "--class", "2", "--json", word
    )
    assert code == 0
    assert json.loads(out)["coords"] == ["1", "1", "1"]


def test_usage_errors_exit_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 1
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["basis", "--rank", "2"])
    assert exc.value.code == 1
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["basis", "--rank", "two", "--class", "2"])
    assert exc.value.code == 1
    capsys.readouterr()


def test_config_violations_exit_two(capsys):
    code, _, err = run_cli(capsys, "basis", "--rank", "1", "--class", "3")
    assert code == 2 and "rank" in err
    code, _, err = run_cli(capsys, "basis", "--rank", "2", "--class", "1")
    assert code == 2
    code, _, err = run_cli(capsys, "basis", "--rank", "4", "--class", "4")
    assert code == 2


# the command line admits by word count sum_{i <= class} rank^i: (7,2) has 57
# words and is served, (13,2) has 183 and (2,7) 255, past DESK_WORD_LIMIT = 160
@pytest.mark.parametrize("rank, nclass", [(13, 2), (2, 7)])
def test_configurations_past_the_word_limit_exit_two(capsys, rank, nclass):
    code, out, err = run_cli(capsys, "basis", "--rank", str(rank), "--class", str(nclass))
    assert code == 2 and out == ""
    assert "more than 160 words" in err


def test_verify_serves_rank_seven_class_two(capsys):
    code, out, _ = run_cli(capsys, "verify", "--rank", "7", "--class", "2", "--samples", "1")
    assert code == 0


def test_malformed_json_exits_two(capsys):
    code, _, err = run_cli(
        capsys, "mul", "--rank", "2", "--class", "2", "{not json", "{}"
    )
    assert code == 2


ZERO = '{"r":2,"c":2,"coords":["0","0","0"]}'


@pytest.mark.parametrize(
    "argv, cocycle",
    [
        (["collect", '[{"idx":[1,1],"exp":"1"}]'], None),
        (["collect", "[[1,1]]"], None),
        (["collect", '[{"index":[1],"exp":"1"}]'], None),
        (["collect", '[{"index":["1","1"],"exp":"1"}]'], None),
        (["collect", '[{"index":[1,1],"exp":1}]'], None),
        (["collect", '[{"index":[true,1],"exp":"1"},{"index":[1,true],"exp":"2"}]'], None),
        (["mul", '{"r":2,"c":2,"coords":[[1],"0","0"]}', ZERO], None),
        (["mul", "[1]", "[2]"], None),
        (["deform", "check"], {"r": 2, "c": 2, "cocycles": [[[{"deg": [1, 1], "coeff": "1"}]], [[]]]}),
        (["deform", "check"], {"r": 2, "c": 2, "cocycles": [[[{"degrees": [1, 1], "coeff": "x"}]], [[]]]}),
        (["deform", "check"], {"r": 2, "c": 2, "cocycles": [[[{"degrees": [1, 1], "coeff": 5}]], [[]]]}),
        (["deform", "check"], {"r": 2, "c": 2, "cocycles": [[[{"degrees": [1, 1], "coeff": "1"},
                                                             {"degrees": [1, 1], "coeff": "2"}]], [[]]]}),
        (["deform", "check"], {"r": 2, "c": 2, "cocycles": [[{}], [[]]]}),
        (["deform", "check"], [1]),
        (["deform", "check"], {"r": 2.0, "c": 2, "cocycles": [[[]], [[]]]}),
        (["deform", "check"], {"r": 2, "c": 2.0, "cocycles": [[[]], [[]]]}),
        (["deform", "check"], {"r": 2, "c": True, "cocycles": [[[]], [[]]]}),
        (["deform", "check"], {"r": 2, "c": 2, "cocycles": [[[]]]}),
        (["deform", "mul", ZERO, ZERO], {"r": 2, "c": 2, "cocycles": [[[], []], [[], []]]}),
    ],
    ids=[
        "letter-key", "letter-list", "short-index", "string-index", "number-exp", "bool-index",
        "nested-coord", "element-list", "term-key", "term-coeff", "number-coeff", "repeated-degrees",
        "component-object", "file-list",
        "float-rank", "float-class", "bool-class", "one-cocycle", "two-components",
    ],
)
def test_malformed_json_fields_exit_two(tmp_path, capsys, argv, cocycle):
    command, *rest = argv
    if cocycle is not None:
        path = tmp_path / "cocycle.json"
        path.write_text(json.dumps(cocycle), encoding="utf-8")
        rest = ["--cocycle", str(path), *rest]
    code, out, err = run_cli(capsys, command, "--rank", "2", "--class", "2", *rest)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_hallpoly_output_parses(capsys):
    code, out, _ = run_cli(capsys, "hallpoly", "--rank", "2", "--class", "2")
    assert code == 0
    assert canonical_polys_parse_check(json.loads(out))


@pytest.mark.parametrize(
    "rank, nclass, pinned",
    [
        (2, 3, "76e67bdadaafba0bc6928233fdca4ee409e48882d06185a3f6e427398424b4b2"),
        (3, 4, "60458d4cf12b2a48be8d78e74f1cbf73068b0675455a52e1d1b616e22f3253a2"),
        (4, 3, "0d058ad7015b97ef8cb34816b77ade4aa42e1dade9d4e855a87ab108744443f5"),
        (2, 5, "3d6878aff3237f39bc53ab5c36458fe3fa41facd958198864aecf6455ac4763e"),
        (2, 6, "e8338108e845790f109f1cf7086df6b1c7171a4c69a78d0caab162f75fe0871f"),
        (5, 3, "81d9b8c9663f1453de1b45905675023ea4e23d94fa3c781865ef1573e853ff95"),
    ],
)
def test_hallpoly_json_digest_pinned(capsys, rank, nclass, pinned):
    code, out, _ = run_cli(
        capsys, "hallpoly", "--rank", str(rank), "--class", str(nclass), "--json"
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == pinned


# the basis and Lie-ring objects are written, never read back, so their
# bytes are pinned instead
@pytest.mark.parametrize(
    "command, rank, nclass, pinned",
    [
        ("basis", 2, 5, "4afda2d1aa8b76a43cb43b9f5939db6de2a9382c3c14707039a01b50bfab9441"),
        ("basis", 3, 3, "2087ccd5746c7c02f269b77425754d0d09a4ad90f5d55dd5e26166b22ba73d36"),
        ("lie", 2, 3, "bcd9c4e4f49d9367a1b37e14ad36a6e2048a2666ab9f6e1d26218612ca521b35"),
        ("lie", 3, 3, "995d70fd4c55cb84c476f79b6d7f96ebaf9cadd8b5605596550cfffceab669fb"),
    ],
)
def test_writer_json_digest_pinned(capsys, command, rank, nclass, pinned):
    tail = ("constants", "--json") if command == "lie" else ("--json",)
    code, out, _ = run_cli(capsys, command, "--rank", str(rank), "--class", str(nclass), *tail)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == pinned


def test_verify_small_run_exits_zero(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify", "--rank", "2", "--class", "2", "--seed", "1", "--samples", "20",
    )
    assert code == 0
    assert "checks passed" in out


@pytest.mark.parametrize("count", ["0", "-1"])
def test_verify_rejects_non_positive_samples(capsys, count):
    code, out, err = run_cli(
        capsys, "verify", "--rank", "2", "--class", "2", "--samples", count
    )
    assert code == 2
    assert out == "" and "samples" in err


def test_verify_json_deterministic(capsys):
    args = (
        "verify", "--rank", "2", "--class", "2",
        "--seed", "7", "--samples", "15", "--json",
    )
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert json.loads(out1)["ok"] is True


def test_lie_compare_and_pf(capsys):
    code, out, _ = run_cli(
        capsys, "lie", "--rank", "2", "--class", "3", "compare", "--json"
    )
    assert code == 0
    assert json.loads(out)["equal"] is True
    code, out, _ = run_cli(
        capsys, "lie", "--rank", "2", "--class", "3", "pf", "--json"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["dimension"] == 1
    assert obj["all_scalar"] is True


def test_lie_constants_round_trip(capsys):
    code, out, _ = run_cli(
        capsys, "lie", "--rank", "2", "--class", "2", "constants"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["group_side"]["dims"] == [2, 1]
    assert obj["algebra_side"]["dims"] == [2, 1]


def test_petresco_command(capsys):
    code, out, _ = run_cli(
        capsys,
        "petresco", "--rank", "2", "--class", "2", "--json",
        '{"r":2,"c":2,"coords":["1","0","0"]}',
        '{"r":2,"c":2,"coords":["0","1","0"]}',
    )
    assert code == 0
    obj = json.loads(out)
    assert len(obj["taus"]) == 2
    # tau_2 of the two generators is their group commutator
    assert obj["taus"][1]["coords"] == ["0", "0", "-1"]


def test_deform_actions(tmp_path, capsys):
    cocycle = {
        "r": 2,
        "c": 2,
        "cocycles": [
            [[{"degrees": [1, 1], "coeff": "1"}]],
            [[]],
        ],
    }
    path = tmp_path / "cocycle.json"
    path.write_text(json.dumps(cocycle), encoding="utf-8")

    code, out, _ = run_cli(
        capsys,
        "deform", "--rank", "2", "--class", "2",
        "--cocycle", str(path), "check", "--json",
    )
    assert code == 0
    assert json.loads(out)["ok"] is True

    code, out, _ = run_cli(
        capsys,
        "deform", "--rank", "2", "--class", "2",
        "--cocycle", str(path), "--json", "mul",
        '{"r":2,"c":2,"coords":["1","0","0"]}',
        '{"r":2,"c":2,"coords":["1","0","0"]}',
    )
    assert code == 0
    # x1 * x1 picks up f(1,1) = 1 on the top coordinate
    assert json.loads(out)["coords"] == ["2", "0", "1"]

    code, out, _ = run_cli(
        capsys,
        "deform", "--rank", "2", "--class", "2",
        "--cocycle", str(path), "iso", "--samples", "40", "--json",
    )
    assert code == 0
    assert json.loads(out)["extension_matches_product"] is True


@pytest.mark.parametrize("count", ["0", "-1"])
def test_deform_iso_rejects_non_positive_samples(tmp_path, capsys, count):
    cocycle = {"r": 2, "c": 2, "cocycles": [[[{"degrees": [1, 1], "coeff": "1"}]], [[]]]}
    path = tmp_path / "cocycle.json"
    path.write_text(json.dumps(cocycle), encoding="utf-8")
    code, out, err = run_cli(
        capsys,
        "deform", "--rank", "2", "--class", "2",
        "--cocycle", str(path), "iso", "--samples", count,
    )
    assert code == 2
    assert out == "" and "samples" in err


@pytest.mark.parametrize("count, checked", [("3", 3), ("200", 100)])
def test_deform_iso_caps_its_extension_check(tmp_path, capsys, monkeypatch, count, checked):
    cocycle = {"r": 2, "c": 2, "cocycles": [[[{"degrees": [1, 1], "coeff": "1"}]], [[]]]}
    path = tmp_path / "cocycle.json"
    path.write_text(json.dumps(cocycle), encoding="utf-8")
    seen = []
    original = cli.extension_rows

    def recorded(ext, rng, samples):
        seen.append(samples)
        return original(ext, rng, samples)

    monkeypatch.setattr(cli, "extension_rows", recorded)
    code, out, _ = run_cli(
        capsys,
        "deform", "--rank", "2", "--class", "2",
        "--cocycle", str(path), "iso", "--samples", count, "--json",
    )
    assert code == 0
    assert json.loads(out)["verified_samples"] == int(count)
    assert seen == [checked]


def test_deform_iso_failure_names_its_counterexample(tmp_path, capsys, monkeypatch):
    cocycle = {"r": 2, "c": 2, "cocycles": [[[{"degrees": [1, 1], "coeff": "1"}]], [[]]]}
    path = tmp_path / "cocycle.json"
    path.write_text(json.dumps(cocycle), encoding="utf-8")
    monkeypatch.setattr(SplittingIsomorphism, "holds_at", lambda self, g, h, x: False)
    code, out, err = run_cli(
        capsys,
        "deform", "--rank", "2", "--class", "2",
        "--cocycle", str(path), "iso", "--samples", "5",
    )
    assert code == 3 and out == ""
    shown = r"g=\(-?\d+, -?\d+, -?\d+\), h=\(-?\d+, -?\d+, -?\d+\), x=\(-?\d+, -?\d+, -?\d+\)"
    assert re.fullmatch(f"verification failed: splitting isomorphism, first counterexample: {shown}\n", err)


def test_deform_rejects_non_cocycle(tmp_path, capsys):
    cocycle = {
        "r": 2,
        "c": 2,
        "cocycles": [
            [[{"degrees": [2, 1], "coeff": "1"}]],
            [[]],
        ],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cocycle), encoding="utf-8")
    code, out, _ = run_cli(
        capsys,
        "deform", "--rank", "2", "--class", "2",
        "--cocycle", str(path), "check", "--json",
    )
    assert code == 3
    assert json.loads(out)["ok"] is False
    # building the deformed group from it is a contract violation
    code, _, err = run_cli(
        capsys,
        "deform", "--rank", "2", "--class", "2",
        "--cocycle", str(path),
        "mul",
        '{"r":2,"c":2,"coords":["0","0","0"]}',
        '{"r":2,"c":2,"coords":["0","0","0"]}',
    )
    assert code == 2


def test_at_file_elements_and_out_flag(tmp_path, capsys):
    el = tmp_path / "element.json"
    el.write_text('{"r":2,"c":2,"coords":["1","2","3"]}', encoding="utf-8")
    out_path = tmp_path / "result.json"
    code, out, _ = run_cli(
        capsys,
        "inv", "--rank", "2", "--class", "2", "--json",
        "--out", str(out_path), f"@{el}",
    )
    assert code == 0
    assert out == ""
    obj = json.loads(out_path.read_text(encoding="utf-8"))
    assert obj["coords"][0] == "-1"


def test_element_json_round_trips_through_cli(capsys):
    element = '{"r":2,"c":2,"coords":["4","-5","6"]}'
    code, once, _ = run_cli(
        capsys, "pow", "--rank", "2", "--class", "2", "--json", element, "1"
    )
    assert code == 0
    obj = json.loads(once)
    code, twice, _ = run_cli(
        capsys,
        "pow", "--rank", "2", "--class", "2", "--json",
        json.dumps(obj), "1",
    )
    assert code == 0
    assert once == twice
