import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hopfalg.catalog import make_B, make_cla_a
from hopfalg.cli import main
from hopfalg.cobar import h2_report
from hopfalg.jsonio import cla_to_json, load_object, presentation_to_json

SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_catalog_family(capsys):
    code, out, _ = run(capsys, "verify", "--family", "K")
    assert code == 0
    assert "PASS" in out


def test_verify_corrupted_file_fails(tmp_path, capsys):
    data = presentation_to_json(make_B(1))
    # flip the forced -1 coefficient of Z in [Z,X]
    data["commutators"]["Z,X"] = [{"coeff": "1", "monomial": {"Z": 1}},
                                  {"coeff": "1", "monomial": {"Y": 1}}]
    path = tmp_path / "corrupted_b.json"
    path.write_text(json.dumps(data))
    code, out, _ = run(capsys, "verify", "--file", str(path))
    assert code == 1
    assert "FAIL" in out


def test_verify_file_with_a_commutator_pair_given_twice_is_input_error(
        tmp_path, capsys):
    data = presentation_to_json(make_B(1))
    data["commutators"]["Z, X"] = data["commutators"]["Z,X"]
    path = tmp_path / "twice_b.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "verify", "--file", str(path))
    assert code == 2 and not out
    assert "[Z,X] is given twice" in err


def test_bad_parameter_arity_is_input_error(capsys):
    code, _, err = run(capsys, "verify", "--family", "A", "--params", "1")
    assert code == 2
    assert "parameter" in err


def test_unknown_family_is_input_error(capsys):
    code, _, err = run(capsys, "verify", "--family", "Q")
    assert code == 2


def test_missing_object_is_input_error(capsys):
    code, _, err = run(capsys, "primitives")
    assert code == 2


def test_primitives_and_p2_dimensions(capsys):
    code, out, _ = run(capsys, "primitives", "--family", "D",
                       "--params", "0,1,0,0,0,0,0,0")
    assert code == 0 and "dimension 2" in out
    code, out, _ = run(capsys, "p2", "--family", "E", "--params", "1,1,0",
                       "--json")
    assert code == 0
    assert json.loads(out)["dimension"] == 3


def test_p2_of_cla_envelopes_first(capsys):
    code, out, _ = run(capsys, "p2", "--family", "cla35f")
    assert code == 0 and "dimension 4" in out


def test_p2_of_file_based_enveloping_algebra(tmp_path, capsys):
    from hopfalg.catalog import make_lie_preset
    path = tmp_path / "heis3.json"
    path.write_text(json.dumps(presentation_to_json(make_lie_preset("heis3"))))
    code, out, _ = run(capsys, "p2", "--file", str(path), "--json")
    assert code == 0
    assert json.loads(out)["dimension"] == 3


def test_coradical_level(capsys):
    code, out, _ = run(capsys, "coradical", "--family", "A",
                       "--params", "0,0,0", "--level", "1")
    assert code == 0 and "dimension 3" in out


@pytest.mark.parametrize("argv", [["primitives"], ["p2"],
                                  ["coradical", "--level", "2"]],
                         ids=["primitives", "p2", "coradical"])
def test_space_commands_take_no_degree_bound(argv, capsys):
    # each space is answered whole, so a bound is refused, not ignored
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--family", "K", "--max-degree", "5"])
    assert exc.value.code == 2
    assert "--max-degree" in capsys.readouterr().err


def test_extract_cla_json(capsys):
    code, out, _ = run(capsys, "extract-cla", "--family", "D",
                       "--params", "0,1,0,0,0,0,0,0", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["basis"] == ["X", "Y", "Z"]
    assert data["delta"]["2"] == [{"coeff": "1", "left": 0, "right": 1},
                                  {"coeff": "-1", "left": 1, "right": 0}]


def _generators_file(tmp_path, generators, coproducts):
    """A presentation file: generators as (name, degree), each coproduct
    as name -> [(coeff, left name, right name)]."""
    path = tmp_path / "presentation.json"
    path.write_text(json.dumps({
        "generators": [{"name": n, "degree": d} for n, d in generators],
        "coproducts": {name: [{"coeff": str(c), "left": {a: 1},
                               "right": {b: 1}} for c, a, b in terms]
                       for name, terms in coproducts.items()}}))
    return str(path)


def test_extract_cla_reads_p2_at_its_complete_bound(tmp_path, capsys,
                                                     monkeypatch):
    # k[X, Y, W], delta(W) = X(x)Y: P2 holds W - XY/2 of degree 3 = g;
    # the bound of the other subcommands does not truncate it
    path = _generators_file(tmp_path, [("X", 1), ("Y", 1), ("W", 3)],
                            {"W": [(1, "X", "Y")]})
    monkeypatch.setenv("HOPF_MAX_DEGREE", "2")
    code, out, _ = run(capsys, "extract-cla", "--file", path)
    assert code == 0 and out == "CLA(X, Y, p3; abelian)\n"
    code, out, _ = run(capsys, "extract-cla", "--file", path, "--json")
    assert code == 0 and json.loads(out)["basis"] == ["X", "Y", "p3"]
    with pytest.raises(SystemExit):
        main(["extract-cla", "--file", path, "--max-degree", "3"])
    assert "--max-degree" in capsys.readouterr().err


def test_lantern_output(capsys):
    code, out, _ = run(capsys, "lantern", "--family", "K", "--json")
    assert code == 0
    data = json.loads(out)
    assert sorted(data["degrees"]) == [1, 1, 2, 3]


def test_lantern_of_a_file_reads_every_generator(tmp_path, capsys):
    # k[X, Y, Z], delta(Z) = X(x)Y - Y(x)X, with a primitive V of degree
    # 4: the lantern holds V*, as does the one h2_report reads
    generators = [("X", 1), ("Y", 1), ("Z", 2), ("V", 4)]
    coproducts = {"Z": [(1, "X", "Y"), (-1, "Y", "X")]}
    path = _generators_file(tmp_path, generators, coproducts)
    code, out, _ = run(capsys, "lantern", "--json", "--file", path)
    assert code == 0
    data = json.loads(out)
    assert data["basis"] == ["X*", "Y*", "Z*", "V*"]
    h = load_object(path)
    h2_report(h, 5)
    assert data["degrees"] == h._kept(("lantern",), None).degrees == [
        1, 1, 2, 4]


def test_cohomology_bidegree_json(capsys):
    code, out, _ = run(capsys, "cohomology", "--family", "A",
                       "--params", "0,0,0", "--max-degree", "6",
                       "--bidegree", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["total_h2"] == 2
    spots = {tuple(r["bidegree"]) for r in data["rows"] if r["h2"]}
    assert spots == {(1, 2), (2, 1)}


def test_cohomology_file_reads_the_rows_at_g_prime(tmp_path, capsys,
                                                   monkeypatch):
    # k[X, Y, W] with delta(W) = X(x)Y: the lantern predicts H^2 = 3 but
    # X(x)Y bounds once W enters, so the report at bound 5 reads 2, the
    # H^2 of C_<=4
    monkeypatch.delenv("HOPF_MAX_DEGREE", raising=False)
    path = tmp_path / "delta_w.json"
    path.write_text(json.dumps({
        "generators": [{"name": "X", "degree": 1}, {"name": "Y", "degree": 1},
                       {"name": "W", "degree": 3}],
        "coproducts": {"W": [{"coeff": "1", "left": {"X": 1},
                              "right": {"Y": 1}}]}}))
    code, out, _ = run(capsys, "cohomology", "--json", "--file", str(path))
    assert code == 0
    data = json.loads(out)
    assert data["total_h2"] == 2
    assert [r["h2"] for r in data["rows"]] == [0, 1, 0, 2, 2]


def test_cohomology_refuses_a_non_coassociative_file(tmp_path, capsys):
    # delta(Z) = X(x)Y and delta(W) = X(x)Z is not coassociative on W, so
    # d^2 != 0 and the rows (once 0, 0, 1, -1, -5, ...) would mean nothing
    path = tmp_path / "not_coassociative.json"
    path.write_text(json.dumps({
        "generators": [{"name": "X", "degree": 1}, {"name": "Y", "degree": 1},
                       {"name": "Z", "degree": 2}, {"name": "W", "degree": 3}],
        "coproducts": {
            "Z": [{"coeff": "1", "left": {"X": 1}, "right": {"Y": 1}}],
            "W": [{"coeff": "1", "left": {"X": 1}, "right": {"Z": 1}}]}}))
    for argv in (["--json"], ["--max-degree", "8"]):
        code, out, err = run(capsys, "cohomology", "--file", str(path), *argv)
        assert code == 2 and out == ""
        assert err == ("error: cobar H^2 needs a Hopf algebra (PBW basis, "
                       "d^2 = 0, Delta an algebra map): coassociativity on W "
                       "fails\n")


def test_cohomology_refuses_a_file_that_is_no_bialgebra(tmp_path, capsys):
    # [Y,X] = Z for primitive X, Y while delta(Z) = A(x)B: coassociative
    # and PBW-consistent, but Delta is no algebra map
    path = tmp_path / "not_compatible.json"
    path.write_text(json.dumps({
        "generators": [{"name": "A", "degree": 1}, {"name": "B", "degree": 1},
                       {"name": "X", "degree": 2}, {"name": "Y", "degree": 2},
                       {"name": "Z", "degree": 3}],
        "commutators": {"Y,X": [{"coeff": "1", "monomial": {"Z": 1}}]},
        "coproducts": {
            "Z": [{"coeff": "1", "left": {"A": 1}, "right": {"B": 1}}]}}))
    for argv in (["--json"], ["--max-degree", "8"]):
        code, out, err = run(capsys, "cohomology", "--file", str(path), *argv)
        assert code == 2 and out == ""
        assert err == ("error: cobar H^2 needs a Hopf algebra (PBW basis, "
                       "d^2 = 0, Delta an algebra map): Delta respects [Y,X] "
                       "fails\n")


@pytest.mark.parametrize("argv, lantern, matches, complete", [
    (["--family", "A", "--params", "0,0,0", "--max-degree", "6",
      "--bidegree"], [{"bidegree": [1, 2], "h2": 1},
                      {"bidegree": [2, 1], "h2": 1}], True, True),
    (["--family", "K", "--max-degree", "4"],
     [{"degree": 3, "h2": 1}, {"degree": 4, "h2": 1}], True, False),
    (["--family", "K", "--max-degree", "5"],
     [{"degree": 3, "h2": 1}, {"degree": 4, "h2": 1}], True, True),
    # k[X, Y, W], delta(W) = X(x)Y: the CE sum 3 is not reached, yet the
    # rows past G' = 4 repeat H^2(C_<=4), so the report is complete
    (["--file", "delta_w.json", "--max-degree", "6"],
     [{"degree": 2, "h2": 1}, {"degree": 4, "h2": 2}], False, True),
])
def test_cohomology_json_carries_the_lantern_prediction(
        argv, lantern, matches, complete, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "delta_w.json").write_text(json.dumps({
        "generators": [{"name": "X", "degree": 1}, {"name": "Y", "degree": 1},
                       {"name": "W", "degree": 3}],
        "coproducts": {"W": [{"coeff": "1", "left": {"X": 1},
                              "right": {"Y": 1}}]}}))
    code, out, _ = run(capsys, "cohomology", "--json", *argv)
    assert code == 0
    data = json.loads(out)
    assert data["lantern_ce_h2"] == lantern
    assert data["matches_lantern"] is matches
    assert data["complete"] is complete
    code, text, _ = run(capsys, "cohomology", *argv)
    assert "lantern" not in text and "complete" not in text


def test_importing_the_cli_leaves_the_battery_unloaded():
    # `replicate` and `ledger` are imported by the commands that run them
    probe = ("import sys, hopfalg.cli; print(sorted(m for m in sys.modules "
             "if m in ('hopfalg.replicate', 'hopfalg.ledger')))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    run_ = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=60)
    assert run_.returncode == 0, run_.stderr
    assert run_.stdout.strip() == "[]"


def test_env_var_overrides_default_bound(capsys, monkeypatch):
    monkeypatch.setenv("HOPF_MAX_DEGREE", "3")
    code, out, _ = run(capsys, "verify", "--family", "B", "--params", "0",
                       "--json")
    assert code == 0
    names = [c["name"] for c in json.loads(out)["checks"]]
    assert "antipode axiom through degree 3" in names


def test_morphism_file(tmp_path, capsys):
    # primitive shift W -> W - (2/3) X Y^2 lands in the Lie subalgebra
    payload = {
        "source": {
            "generators": [{"name": "X", "degree": 1},
                           {"name": "Y", "degree": 1},
                           {"name": "Z", "degree": 1},
                           {"name": "Wp", "degree": 1}],
            "commutators": {
                "Z,X": [{"coeff": "1", "monomial": {"Y": 1}}],
                "Wp,Y": [{"coeff": "1", "monomial": {"Y": 1}}],
                "Wp,Z": [{"coeff": "1", "monomial": {"Z": 1}}]},
        },
        "target": {"family": "F", "params": ["0", "1", "0"]},
        "images": {
            "X": [{"coeff": "1", "monomial": {"X": 1}}],
            "Y": [{"coeff": "1", "monomial": {"Y": 1}}],
            "Z": [{"coeff": "1", "monomial": {"Z": 1}}],
            "Wp": [{"coeff": "1", "monomial": {"W": 1}},
                   {"coeff": "-2/3", "monomial": {"X": 1, "Y": 2}}]},
        "check_coalgebra": False,
    }
    path = tmp_path / "morphism.json"
    path.write_text(json.dumps(payload))
    code, out, _ = run(capsys, "morphism", "--file", str(path))
    assert code == 0


def _malformed_presentation(edit, part="commutators", key="Z,X"):
    data = presentation_to_json(make_B(1))
    edit(data[part][key][0])
    return data


def _malformed_morphism(edit):
    data = {"source": {"family": "K"}, "target": {"family": "K"},
            "images": {name: [{"coeff": "1", "monomial": {name: 1}}]
                       for name in ("X", "Y", "Z", "W")}}
    edit(data["images"]["X"][0])
    return data


def _morphism_side(side, **fields):
    data = _malformed_morphism(lambda t: None)
    data[side].update(fields)
    return data


def _family_morphism(params):
    side = {"family": "B", "params": params}
    return {"source": side, "target": side,
            "images": {name: [{"coeff": "1", "monomial": {name: 1}}]
                       for name in ("X", "Y", "Z")}}


def _morphism_check(value):
    data = _malformed_morphism(lambda t: None)
    data["check_coalgebra"] = value
    return data


def _cla_array(part):
    data = cla_to_json(make_cla_a(1, 2, 0))
    data[part] = list(data[part].values())
    return data


def _one_generator(**fields):
    return {"generators": [dict({"name": "X", "degree": 1}, **fields)]}


def _malformed_cla(edit, part):
    data = cla_to_json(make_cla_a(1, 2, 0))
    edit(next(iter(data[part].values()))[0])
    return data


@pytest.mark.parametrize("command, data", [
    ("verify", _malformed_presentation(lambda t: t.pop("coeff"))),
    ("verify", _malformed_presentation(lambda t: t.update(coeff=1.5))),
    ("verify", _malformed_presentation(lambda t: t.update(monomial={"Z": "a"}))),
    ("morphism", _malformed_morphism(lambda t: t.pop("coeff"))),
    ("morphism", [_malformed_morphism(lambda t: None)]),
    ("verify", _one_generator(degree=1.5)),
    ("verify", _one_generator(degree=True)),
    ("verify", _one_generator(bidegree=[0.5, 0.5])),
    ("primitives", _one_generator(name=5)),
    ("verify", {"basis": [0, 1, 2]}),
    ("lantern", {"basis": [0, 1, 2]}),
    ("primitives", {"basis": [0, 1, 2]}),
    ("verify", {"basis": "xyz"}),
    ("verify", {"basis": {"x": 0, "y": 1}}),
    ("verify", _malformed_presentation(lambda t: t.update(monomial=["X"]))),
    ("verify", _malformed_presentation(lambda t: t.update(monomial="X"))),
    ("verify", _malformed_presentation(lambda t: t.update(left=["X"]),
                                       "coproducts", "Z")),
    ("morphism", _malformed_morphism(lambda t: t.update(monomial=["X"]))),
    ("verify", _malformed_cla(lambda t: t.update(basis="1"), "brackets")),
    ("verify", _malformed_cla(lambda t: t.update(basis=1.5), "brackets")),
    ("verify", _malformed_cla(lambda t: t.update(left="1"), "delta")),
    ("verify", _malformed_cla(lambda t: t.update(right=1.5), "delta")),
    ("verify", _cla_array("brackets")),
    ("verify", _cla_array("delta")),
    ("morphism", _morphism_side("source", family=5)),
    ("morphism", _morphism_side("target", family=5)),
    ("morphism", _morphism_side("source", params=5)),
    ("morphism", _morphism_side("target", params=5)),
    ("verify", _malformed_presentation(lambda t: t.update(coeff=True),
                                       "coproducts", "Z")),
    ("morphism", _malformed_morphism(lambda t: t.update(coeff=True))),
    ("verify", _malformed_cla(lambda t: t.update(coeff=True), "delta")),
    ("morphism", _family_morphism([0.5])),
    ("morphism", _family_morphism([True])),
    ("morphism", _morphism_check("false")),
    ("morphism", _morphism_check(0)),
    ("morphism", _morphism_check(None)),
    ("verify", _malformed_presentation(
        lambda t: t.update(monomial={"X": True}))),
    ("verify", _malformed_presentation(
        lambda t: t.update(monomial={"X": 1.5}))),
    ("verify", _malformed_presentation(lambda t: t.update(left={"X": True}),
                                       "coproducts", "Z")),
], ids=["presentation-no-coeff", "presentation-float-coeff",
        "presentation-string-exponent", "morphism-no-coeff",
        "morphism-top-level-list", "generator-float-degree",
        "generator-bool-degree", "generator-float-bidegree",
        "generator-int-name", "cla-int-names-verify", "cla-int-names-lantern",
        "cla-int-names-primitives", "cla-string-basis", "cla-object-basis",
        "presentation-list-monomial", "presentation-string-monomial",
        "coproduct-list-factor", "morphism-list-monomial",
        "cla-string-bracket-index", "cla-float-bracket-index",
        "cla-string-delta-index", "cla-float-delta-index",
        "cla-array-brackets", "cla-array-delta", "morphism-int-source-family",
        "morphism-int-target-family", "morphism-int-source-params",
        "morphism-int-target-params", "presentation-bool-coeff",
        "morphism-bool-coeff", "cla-bool-coeff", "morphism-float-params",
        "morphism-bool-params", "morphism-string-check-coalgebra",
        "morphism-int-check-coalgebra", "morphism-null-check-coalgebra",
        "presentation-bool-exponent", "presentation-float-exponent",
        "coproduct-bool-exponent"])
def test_malformed_file_is_input_error(tmp_path, capsys, command, data):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, command, "--file", str(path))
    assert code == 2 and out == "" and err.startswith("error: ")


def test_morphism_image_of_unknown_generator_is_input_error(tmp_path, capsys):
    data = _malformed_morphism(lambda t: None)
    data["images"]["Q"] = [{"coeff": "1", "monomial": {"X": 1}}]
    path = tmp_path / "morphism.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "morphism", "--file", str(path))
    assert code == 2 and out == "" and "'Q'" in err


def test_catalog_listing_deterministic(capsys):
    code1, out1, _ = run(capsys, "catalog")
    code2, out2, _ = run(capsys, "catalog")
    assert code1 == code2 == 0
    assert out1 == out2
    assert "A(0,0,0)" in out1


def test_replicate_json(capsys):
    code, out, _ = run(capsys, "replicate", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert len(data["criteria"]) == 9


def test_replicate_fails_on_injected_corruption(capsys, monkeypatch):
    from hopfalg import replicate
    from hopfalg.catalog import FamilySpec, list_catalog

    def corrupted_catalog():
        # a B-type entry with the forced -1 coefficient flipped
        return list_catalog() + [
            FamilySpec("cla_b_corrupt", {}, "corrupted b(1)")]

    def corrupted_build(spec):
        from hopfalg.catalog import build as real_build
        from hopfalg.cla import CLA
        if spec.tag == "cla_b_corrupt":
            return CLA(["x", "y", "z"],
                       brackets={(0, 1): {1: 1}, (2, 0): {2: 1, 1: 1}},
                       delta={2: {(0, 1): 1, (1, 0): -1}})
        return real_build(spec)

    monkeypatch.setattr(replicate, "list_catalog", corrupted_catalog)
    monkeypatch.setattr(replicate, "build", corrupted_build)
    code, out, _ = run(capsys, "replicate")
    assert code == 1
    assert "FAIL" in out


def test_unparseable_params_are_input_errors(capsys):
    for params in ("1/0", "abc"):
        code, _, err = run(capsys, "verify", "--family", "B", "--params", params)
        assert code == 2
        assert "rational" in err


def test_malformed_json_file_is_input_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"generators": [')
    code, _, err = run(capsys, "verify", "--file", str(path))
    assert code == 2 and "JSON" in err


@pytest.mark.parametrize("command", ["verify", "cohomology"])
def test_bad_env_bound_is_input_error(command, capsys, monkeypatch):
    monkeypatch.setenv("HOPF_MAX_DEGREE", "five")
    code, _, err = run(capsys, command, "--family", "B", "--params", "0")
    assert code == 2 and "HOPF_MAX_DEGREE" in err


def test_internal_value_error_is_not_reported_as_bad_input(monkeypatch):
    from hopfalg import cli

    def broken(*args, **kwargs):
        raise ValueError("internal defect")

    monkeypatch.setattr(cli, "h2_report", broken)
    with pytest.raises(ValueError, match="internal defect"):
        main(["cohomology", "--family", "A", "--params", "0,0,0"])


def test_verify_default_bound_is_five(capsys, monkeypatch):
    monkeypatch.delenv("HOPF_MAX_DEGREE", raising=False)
    code, out, _ = run(capsys, "verify", "--family", "B", "--params", "0",
                       "--json")
    assert code == 0
    names = [c["name"] for c in json.loads(out)["checks"]]
    assert "antipode axiom through degree 5" in names


def test_cohomology_total_mode_reports_stability(capsys):
    # A(0,0,0): H^2 by level is 0, 0, 2, 2, ... so it settles at bound 4
    for bound, stable in (("3", False), ("4", True)):
        code, out, _ = run(capsys, "cohomology", "--family", "A",
                           "--params", "0,0,0", "--max-degree", bound, "--json")
        assert code == 0
        assert json.loads(out)["stable_from_previous_bound"] is stable
    code, out, _ = run(capsys, "cohomology", "--family", "A",
                       "--params", "0,0,0", "--max-degree", "4")
    assert "stable from bound 3: True" in out


def test_cohomology_bidegree_mode_reports_stability(capsys):
    # the classes of A(0,0,0) sit in bidegrees (1,2) and (2,1), total degree 3
    for bound, stable in (("3", False), ("4", True)):
        code, out, _ = run(capsys, "cohomology", "--family", "A",
                           "--params", "0,0,0", "--max-degree", bound,
                           "--bidegree", "--json")
        assert code == 0
        assert json.loads(out)["stable_from_previous_bound"] is stable


def test_main_serves_two_subcommands_from_one_parser(capsys):
    # the parser is built once per process; each call parses afresh, so
    # the second subcommand sees none of the first one's options
    from hopfalg import cli
    code, out, _ = run(capsys, "catalog", "--json")
    assert code == 0 and json.loads(out)["catalog"]
    code, out, _ = run(capsys, "lantern", "--family", "K", "--json")
    assert code == 0
    assert json.loads(out)["basis"] == ["X*", "Y*", "Z*", "W*"]
    code, out, _ = run(capsys, "cohomology", "--family", "K",
                       "--max-degree", "6", "--json")
    assert code == 0 and json.loads(out)["total_h2"] == 2
    assert cli.build_parser.cache_info().misses == 1
