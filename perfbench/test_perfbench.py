"""Self-tests of the benchmark: span arithmetic, seeded inputs, checkers.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402
from hopfalg import make_D, make_K  # noqa: E402
from hopfalg.ore import AlgebraElement  # noqa: E402
from hopfalg.reports import VerificationReport  # noqa: E402


# -- spans and self time -------------------------------------------------------

def test_self_time_of_nested_spans():
    # a [0, 10] holds b [1, 4] and d [5, 9]; b holds c [2, 3]
    spans = [("ore.a", 0.0, 10.0, -1, 0), ("hopf.b", 1.0, 4.0, 0, 0),
             ("hopf.c", 2.0, 3.0, 1, 0), ("ore.d", 5.0, 9.0, 0, 0)]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    folded = tracing.fold(spans)
    assert folded["layer.ore"] == 7.0
    assert folded["layer.hopf"] == 3.0
    assert sum(v for k, v in folded.items() if k.startswith("layer.")) == 10.0


def test_tracer_records_parents_and_hooks():
    tracer = tracing.Tracer()
    seen = []
    inner = tracer.wrap("x.inner", lambda v: v + 1,
                        hook=lambda args, result: seen.append((args, result)))
    outer = tracer.wrap("y.outer", lambda v: inner(v) * 2)
    tracer.job_id = 7
    assert outer(1) == 4
    assert seen == [((1,), 2)]
    spans = tracer.take_spans()
    names = [s[0] for s in spans]
    assert names == ["y.outer", "x.inner", tracing.HOOK]
    assert [s[3] for s in spans] == [-1, 0, 0]
    assert {s[4] for s in spans} == {7}
    own = tracing.self_times(spans)
    assert all(t >= 0 for t in own)
    assert abs(sum(own) - (spans[0][2] - spans[0][1])) < 1e-9
    assert tracer.take_spans() == []


# -- seeded inputs ---------------------------------------------------------------

def test_same_seed_same_inputs_other_seed_other_parameters():
    for workload in ("cobar", "pbw"):
        assert (workloads.make_inputs(workload, 5)
                == workloads.make_inputs(workload, 5))
        assert (workloads.make_inputs(workload, 5)["D"]
                != workloads.make_inputs(workload, 6)["D"])
    assert workloads.make_inputs("replicate", 1) == {}


def test_seeded_rationals_stay_in_range():
    for seed in range(50):
        for q in workloads.make_inputs("cobar", seed)["D"].values():
            assert abs(q.numerator) <= 9 and 1 <= q.denominator <= 9


def test_both_thetas_zero_is_drawn_again():
    # (numerator, denominator) draws: thetas 0/1, the rest 3/2; then all 5/1
    draws = iter([0, 1, 0, 1] + [3, 2] * 6 + [5, 1] * 8)
    rng = SimpleNamespace(randint=lambda lo, hi: next(draws))
    params = workloads.seeded_d_params(rng)
    assert params["t1"] == 5 and params["x2"] == 5


def test_zero_commutator_coefficient_is_drawn_again():
    # a11 = -a22 makes the Z term of [W, Z] vanish
    draws = iter([1, 1, 1, 1, 2, 1, 1, 1, 1, 1, -2, 1, 1, 1, 1, 1]
                 + [5, 1] * 8)
    rng = SimpleNamespace(randint=lambda lo, hi: next(draws))
    assert workloads.seeded_d_params(rng)["a11"] == 5
    for seed in range(30):
        p = workloads.make_inputs("pbw", seed)["D"]
        assert all(p[n] for n in workloads.D_NAMES[2:])
        assert p["a11"] + p["a22"]


# -- checkers reject wrong answers ---------------------------------------------------

def test_h2_checks_reject_wrong_answers():
    assert workloads.check_total_h2(SimpleNamespace(total_h2=2)) == []
    assert workloads.check_total_h2(SimpleNamespace(total_h2=3))
    good = [{"bidegree": (2, 1), "h2": 1}, {"bidegree": (1, 2), "h2": 1},
            {"bidegree": (1, 1), "h2": 0}]
    assert workloads.check_bidegree_split(SimpleNamespace(rows=good)) == []
    bad = good[:1] + [{"bidegree": (3, 0), "h2": 1}]
    assert workloads.check_bidegree_split(SimpleNamespace(rows=bad))


def test_product_check_rejects_corrupted_leading_coefficient():
    p = make_D(1, 1, 1, 1, 1, 1, 1, 1).algebra
    a, b = p.monomial({"W": 2, "Z": 1}), p.monomial({"X": 1, "Y": 2})
    product = a * b
    assert workloads.check_product(a, b, product) == []
    top = (1, 2, 1, 2)
    assert product.terms[top] == 1
    corrupted = dict(product.terms)
    corrupted[top] = Fraction(2)
    assert workloads.check_product(a, b, AlgebraElement(p, corrupted))
    too_high = dict(product.terms)
    too_high[(0, 0, 0, 5)] = Fraction(1)  # degree 15 > 11
    assert workloads.check_product(a, b, AlgebraElement(p, too_high))


def test_coproduct_check_rejects_broken_counit_and_count():
    h = make_K()
    m = h.algebra.monomial({"W": 1, "Z": 1})
    t = h.coproduct(m)
    n = len(t.terms)
    assert workloads.check_coproduct(h, m, t, want_terms=n) == []
    assert workloads.check_coproduct(h, m, t, want_terms=n + 1)
    unit = h.algebra.unit_monomial
    broken = dict(t.terms)
    del broken[(next(iter(m.terms)), unit)]
    t.terms = broken
    assert workloads.check_coproduct(h, m, t, want_terms=n - 1)


def test_report_and_replication_checks_reject_failures():
    report = VerificationReport("antipode")
    report.add("m(S(x)id)Delta = unit.counit", True)
    assert workloads.check_report(report) == []
    report.add("m(id(x)S)Delta = unit.counit", False)
    assert workloads.check_report(report)

    criteria = [{"number": n, "passed": True} for n in range(1, 10)]
    assert workloads.check_replication(
        (0, {"passed": True, "criteria": criteria})) == []
    assert workloads.check_replication(
        (1, {"passed": True, "criteria": criteria}))
    assert workloads.check_replication(
        (0, {"passed": True, "criteria": criteria[:8]}))
    failing = criteria[:3] + [{"number": 4, "passed": False}] + criteria[4:]
    assert workloads.check_replication(
        (0, {"passed": False, "criteria": failing}))
