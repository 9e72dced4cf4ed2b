import warnings
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from hopfalg.catalog import (FamilySpec, build, family_parameter_names,
                             from_cli_params, list_catalog, make_A, make_B,
                             make_D, make_E, make_F, make_cla_35,
                             make_cla_a, make_cla_b, make_lie,
                             make_lie_preset)
from hopfalg.cla import CLA, enveloping, object_battery, verify_cla
from hopfalg.errors import InputError, ParameterError
from hopfalg.hopf import HopfPresentation

F = Fraction


def test_graded_model_tables():
    h = make_A(0, 0, 0)
    assert h.algebra.kappa == {}
    assert h.algebra.degrees == (1, 1, 2)


def test_a_family_emits_normalization_warning():
    with pytest.warns(UserWarning):
        make_A(1, 0, 1)  # alpha must vanish when l1 != l2
    with pytest.warns(UserWarning):
        make_A(1, 1, 2)
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        make_A(1, 1, 1)
        make_A(1, 5, 0)


def test_b_family_antipode_witness():
    # S(Z) = -Z + [X,Y] = -Z + Y regardless of the deformation parameter
    h = make_B(F(1, 3))
    Z, Y = h.algebra.gen("Z"), h.algebra.gen("Y")
    assert h.antipode(Z) == -Z + Y


def test_d_family_requires_a_nonzero_theta():
    with pytest.raises(ParameterError):
        make_D(0, 0, 1, 1, 1, 1, 1, 1)
    assert isinstance(make_D(1, 0, 0, 0, 0, 0, 0, 0), HopfPresentation)


def test_e_family_representatives_verify():
    for args in [(0, 0, 0), (0, 1, 2), (1, 1, 0)]:
        assert object_battery(make_E(*args)).passed


def test_f_family_warning_outside_normal_form():
    with pytest.warns(UserWarning):
        make_F(2, 3, 0)
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        make_F(0, 1, 5)


def test_k_family_bracket_table(K):
    p = K.algebra
    assert (p.gen("W") * p.gen("X") - p.gen("X") * p.gen("W")) == -p.gen("Z")
    assert (p.gen("W") * p.gen("Y") - p.gen("Y") * p.gen("W")).is_zero()


def test_make_lie_checks_jacobi():
    h = make_lie(["x", "y"], {(0, 1): {1: 1}})
    assert object_battery(h).passed
    with pytest.raises(InputError):
        # [x,[y,z]] + cyclic != 0 for this table
        make_lie(["x", "y", "z"], {(0, 1): {2: 1}, (1, 2): {1: 1},
                                   (0, 2): {0: 1}})


def _assert_hopf_axioms(h):
    assert h.verify_compatibility().passed
    assert h.verify_coassociativity().passed


@pytest.mark.parametrize("name", ["abelian4", "heis3", "solv2"])
def test_make_lie_presets_pass_the_checks_it_skips(name):
    # make_lie checks Jacobi only: with delta = 0 compatibility and
    # coassociativity cannot fail, and the full checks agree
    _assert_hopf_axioms(make_lie_preset(name))


_entries = st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=4),
                    min_size=9, max_size=9)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(st.booleans(), _entries)
def test_make_lie_envelopes_pass_the_checks_it_skips(semidirect, entries):
    # Jacobi-valid for any entries: k^3 x| k with [t, e_i] = sum_j a_ji e_j,
    # or the 2-step nilpotent [e_i, e_j] = c_ij z, [e_i, z] = 0
    if semidirect:
        brackets = {(3, i): {j: entries[3 * i + j] for j in range(3)}
                    for i in range(3)}
    else:
        brackets = {(i, j): {3: c} for (i, j), c in
                    zip([(0, 1), (0, 2), (1, 2)], entries)}
    _assert_hopf_axioms(make_lie(["e0", "e1", "e2", "t"], brackets))


def test_cla_constructors_match_expected_structure():
    a = make_cla_a(1, 2, 3)
    assert a.bracket_constants(2, 0) == {0: 1, 1: 3}
    assert a.bracket_constants(2, 1) == {1: 2}
    b = make_cla_b(5)
    assert b.bracket_constants(0, 1) == {1: 1}
    assert b.bracket_constants(2, 0) == {2: -1, 1: 5}


def test_dim4_variant_parameter_domains():
    with pytest.raises(ParameterError):
        make_cla_35("h", lam=0, a=0)
    with pytest.raises(ParameterError):
        make_cla_35("h", lam=-1, a=0)
    with pytest.raises(ParameterError):
        make_cla_35("h", lam=2, a=2)
    with pytest.raises(ParameterError):
        make_cla_35("a", a=2, b=0, c=0)
    with pytest.raises(ParameterError):
        make_cla_35("q", a=1)
    with pytest.raises(ParameterError):
        make_cla_35("f", a=1)  # variant f is parameter-free


def test_dim4_variants_build_verbatim_tables():
    h = make_cla_35("h", lam=3, a=1)
    assert h.bracket_constants(3, 0) == {1: 1}
    assert h.bracket_constants(3, 2) == {3: -4}
    g = make_cla_35("g", a=1, b=1, c=2)
    assert g.bracket_constants(3, 0) == {0: 1, 1: 2}
    assert g.bracket_constants(3, 1) == {0: 1}


def test_printed_g_and_h_tables_fail_jacobi_when_deformed():
    # the printed tables are only Lie algebras on part of the stated
    # domain; the verification reports the defect instead of hiding it
    assert not verify_cla(make_cla_35("h", lam=2, a=1)).passed
    assert not verify_cla(make_cla_35("g", a=1, b=1, c=0)).passed
    assert not verify_cla(make_cla_35("g", a=1, b=0, c=1)).passed
    assert verify_cla(make_cla_35("h", lam=2, a=0)).passed
    assert verify_cla(make_cla_35("g", a=1, b=0, c=0)).passed


def test_variant_b_is_the_abelian_kernel_family():
    zero = make_cla_35("b", **{k: 0 for k in family_parameter_names("cla35b")})
    assert zero.brackets == {}
    assert verify_cla(zero).passed


def test_catalog_contents_and_determinism():
    specs = list_catalog()
    labels = [s.describe() for s in specs]
    assert "A(0,0,0)" in labels
    assert "K" in labels
    assert any(s.tag == "cla35h" for s in specs)
    assert labels == [s.describe() for s in list_catalog()]


def test_catalog_builds_correct_kinds():
    for spec in list_catalog():
        obj = build(spec)
        if spec.tag.startswith("cla"):
            assert isinstance(obj, CLA)
            assert obj.is_anti_cocommutative()
        else:
            assert isinstance(obj, HopfPresentation)


def test_build_rejects_unknown_parameters():
    for spec in (FamilySpec("B", {"lam": 1, "typo": 2}),
                 FamilySpec("K", {"lam": 3})):
        with pytest.raises(InputError, match="unexpected"):
            build(spec)
    with pytest.raises(InputError, match="missing"):
        build(FamilySpec("B", {}))


def test_cli_parameter_parsing():
    spec = from_cli_params("A", ["1", "0", "0"])
    assert spec.params == {"l1": 1, "l2": 0, "alpha": 0}
    with pytest.raises(InputError):
        from_cli_params("A", ["1"])
    with pytest.raises(InputError):
        from_cli_params("nosuch", [])
    spec = from_cli_params("cla35h", ["2", "1"])
    assert spec.params == {"lam": 2, "a": 1}


# every coefficient nonzero, so every term of each family's table is kept
_FULL_TABLES = [
    FamilySpec("A", {"l1": 2, "l2": 3, "alpha": "1/2"}),
    FamilySpec("B", {"lam": "5/3"}),
    FamilySpec("D", dict(zip(family_parameter_names("D"),
                             [1, "1/2", 2, 3, -1, "4/3", 5, -2]))),
    FamilySpec("E", {"a": 2, "b": "-1/3", "xi": 3}),
    FamilySpec("F", {"beta": 2, "gamma": "2/3", "xi": -1}),
]


def _render_tables(label, h):
    """The lines of the catalog_tables golden for h: kappa, its fold plans
    (over the table scaled by D, the lcm of kappa's denominators), the
    blockers, D and delta_gen, each in key order and with each scalar as
    its repr, so an int and an integral Fraction print apart."""
    a = h.algebra
    lines = [label]
    for pair, terms in a.kappa.items():
        lines.append(f"  kappa {pair}: {list(terms.items())!r}")
        lines.append(f"  folds {pair}: {a._kappa_folds[pair]!r}")
    lines.append(f"  blockers {a._blockers!r}")
    lines.append(f"  scale {a._scale!r}")
    for g, terms in h.delta_gen.items():
        lines.append(f"  delta {g}: {list(terms.items())!r}")
    return lines


def test_catalog_tables_match_their_golden():
    # tests/golden/catalog_tables.txt pins the tables of every catalog
    # entry (the envelope of a CLA), and of each family with every
    # coefficient nonzero, byte for byte: values, value types and key
    # order.  It was written from the catalog's {name: exponent} tables
    # before their term shapes were compiled to exponent tuples; when the
    # fold plans moved to the scaled integer table, only the folds lines
    # of the eight entries with a proper fraction in kappa changed, and
    # each entry gained its scale line.
    lines = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for spec in list_catalog() + _FULL_TABLES:
            obj = build(spec)
            lines += _render_tables(spec.describe(), enveloping(obj)
                                    if isinstance(obj, CLA) else obj)
    golden = Path(__file__).parent / "golden" / "catalog_tables.txt"
    assert "\n".join(lines) + "\n" == golden.read_text()
