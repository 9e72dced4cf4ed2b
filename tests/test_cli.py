import json

import pytest

from hopfalg.catalog import make_B
from hopfalg.cli import main
from hopfalg.jsonio import presentation_to_json


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
                       "--params", "0,1,0,0,0,0,0,0", "--max-degree", "5")
    assert code == 0 and "dimension 2" in out
    code, out, _ = run(capsys, "p2", "--family", "E", "--params", "1,1,0",
                       "--max-degree", "5", "--json")
    assert code == 0
    assert json.loads(out)["dimension"] == 3


def test_p2_of_cla_envelopes_first(capsys):
    code, out, _ = run(capsys, "p2", "--family", "cla35f", "--max-degree", "4")
    assert code == 0 and "dimension 4" in out


def test_p2_of_file_based_enveloping_algebra(tmp_path, capsys):
    from hopfalg.catalog import make_lie_preset
    path = tmp_path / "heis3.json"
    path.write_text(json.dumps(presentation_to_json(make_lie_preset("heis3"))))
    code, out, _ = run(capsys, "p2", "--file", str(path),
                       "--max-degree", "4", "--json")
    assert code == 0
    assert json.loads(out)["dimension"] == 3


def test_coradical_level(capsys):
    code, out, _ = run(capsys, "coradical", "--family", "A",
                       "--params", "0,0,0", "--level", "1",
                       "--max-degree", "3")
    assert code == 0 and "dimension 3" in out


def test_extract_cla_json(capsys):
    code, out, _ = run(capsys, "extract-cla", "--family", "D",
                       "--params", "0,1,0,0,0,0,0,0", "--max-degree", "4",
                       "--json")
    assert code == 0
    data = json.loads(out)
    assert data["basis"] == ["X", "Y", "Z"]
    assert data["delta"]["2"] == [{"coeff": "1", "left": 0, "right": 1},
                                  {"coeff": "-1", "left": 1, "right": 0}]


def test_lantern_output(capsys):
    code, out, _ = run(capsys, "lantern", "--family", "K", "--json")
    assert code == 0
    data = json.loads(out)
    assert sorted(data["degrees"]) == [1, 1, 2, 3]


def test_cohomology_bidegree_json(capsys):
    code, out, _ = run(capsys, "cohomology", "--family", "A",
                       "--params", "0,0,0", "--max-degree", "6",
                       "--bidegree", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["total_h2"] == 2
    spots = {tuple(r["bidegree"]) for r in data["rows"] if r["h2"]}
    assert spots == {(1, 2), (2, 1)}


def test_env_var_overrides_default_bound(capsys, monkeypatch):
    monkeypatch.setenv("HOPF_MAX_DEGREE", "3")
    code, out, _ = run(capsys, "primitives", "--family", "B", "--params", "0")
    assert code == 0 and "degree bound 3" in out


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


def test_bad_env_bound_is_input_error(capsys, monkeypatch):
    monkeypatch.setenv("HOPF_MAX_DEGREE", "five")
    code, _, err = run(capsys, "primitives", "--family", "B", "--params", "0")
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
