"""Seeded inputs, job lists and exact answer checks for the benchmark.

A workload is a function of the generated inputs that returns its job
list.  A job is (name, run, check): `run` computes one answer from scratch,
building its presentation fresh through `catalog.build` so that every job
pays for cold multiplication and coproduct caches, as a `hopf` CLI call
does; `check` gets the answer and returns a list of failures, empty when
the answer is right.  Checks run after the job's timer stops.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from fractions import Fraction

# exponents of the seeded products W^a Z^b . X^c Y^d
BATCH_EXPONENTS = range(1, 4)
D_NAMES = ("t1", "t2", "a11", "a12", "a21", "a22", "x1", "x2")


def seeded_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def seeded_d_params(rng: random.Random) -> dict[str, Fraction]:
    """Parameters of a D-family algebra, drawn again until theta1 or theta2
    is nonzero (make_D rejects both zero) and every commutator coefficient
    (a11, a12, a21, a22, a11 + a22, x1, x2) is nonzero: a zero coefficient
    deletes a rewriting branch, which cut the median product time of a
    seed by more than half."""
    while True:
        p = {name: seeded_rational(rng) for name in D_NAMES}
        coefficients = [p[n] for n in D_NAMES[2:]] + [p["a11"] + p["a22"]]
        if (p["t1"] or p["t2"]) and all(coefficients):
            return p


def make_inputs(workload: str, seed: int) -> dict:
    """Everything the library gets from the seed; the same seed, the same inputs."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "cobar":
        return {"D": seeded_d_params(rng)}
    if workload == "pbw":
        products = list(itertools.product(BATCH_EXPONENTS, repeat=4))
        rng.shuffle(products)
        return {"D": seeded_d_params(rng), "products": products}
    if workload == "replicate":
        return {}  # the paper's catalog
    raise ValueError(f"unknown workload {workload!r}")


# -- checks -----------------------------------------------------------------


def check_total_h2(report, want: int = 2) -> list[str]:
    got = report.total_h2
    return [] if got == want else [f"total H^2 = {got}, expected {want}"]


def check_bidegree_split(report) -> list[str]:
    split = {r["bidegree"]: r["h2"] for r in report.rows if r["h2"]}
    want = {(2, 1): 1, (1, 2): 1}
    return [] if split == want else [f"H^2 by bidegree {split}, expected {want}"]


def check_product(left, right, product) -> list[str]:
    """gr H is commutative: the top-degree part of left*right is the sorted
    monomial with coefficient 1, and no term exceeds that degree."""
    p = product.p
    (ml,), (mr,) = left.terms, right.terms
    top = tuple(x + y for x, y in zip(ml, mr))
    bound = p.monomial_degree(top)
    failures = []
    over = [m for m in product.terms if p.monomial_degree(m) > bound]
    if over:
        failures.append(f"{len(over)} terms above degree {bound}")
    leading = product.homogeneous_component(bound).terms
    if leading != {top: 1}:
        failures.append(f"top-degree part {leading}, expected {{{top}: 1}}")
    return failures


def check_coproduct(h, mono, tensor, want_terms: int) -> list[str]:
    """Both counit axioms, and the known number of terms."""
    unit = h.algebra.unit_monomial
    failures = []
    if len(tensor.terms) != want_terms:
        failures.append(f"{len(tensor.terms)} terms, expected {want_terms}")
    for side in (0, 1):
        rest = {}
        for t, c in tensor.terms.items():
            if t[side] == unit:
                rest[t[1 - side]] = c
        if rest != mono.terms:
            failures.append(f"counit axiom fails on tensor slot {side}")
    return failures


def check_report(report) -> list[str]:
    return [] if report.passed else [f"{report.title}: "
                                     f"{report.failures()[0].name}"]


def check_replication(answer) -> list[str]:
    code, payload = answer
    failures = [] if code == 0 else [f"exit code {code}"]
    if not payload.get("passed"):
        failures.append("replication table not passed")
    criteria = payload.get("criteria", [])
    bad = [c["number"] for c in criteria if not c["passed"]]
    if len(criteria) != 9 or bad:
        failures.append(f"{len(criteria)} criteria, failing {bad}")
    return failures


# -- job lists ----------------------------------------------------------------


def _hopf(hopfalg, tag, params=None):
    return hopfalg.catalog.build(hopfalg.catalog.FamilySpec(tag, params or {}))


def cobar_jobs(hopfalg, inputs):
    """h2_report of K (total, N=8), seeded D (total, N=7), A(0,0,0) (bidegree, N=8)."""
    graded = {"l1": 0, "l2": 0, "alpha": 0}
    return [
        ("h2_K_8", lambda: hopfalg.h2_report(_hopf(hopfalg, "K"), 8),
         check_total_h2),
        ("h2_D_7", lambda: hopfalg.h2_report(_hopf(hopfalg, "D", inputs["D"]), 7),
         check_total_h2),
        ("h2_A_8_bidegree",
         lambda: hopfalg.h2_report(_hopf(hopfalg, "A", graded), 8,
                                   by_bidegree=True),
         check_bidegree_split),
    ]


def _product_job(hopfalg, params, left, right):
    def run():
        p = _hopf(hopfalg, "D", params).algebra
        a, b = p.monomial(left), p.monomial(right)
        return a, b, a * b
    return run


def _coproduct_job(hopfalg, mono):
    def run():
        h = _hopf(hopfalg, "K")
        m = h.algebra.monomial(mono)
        return h, m, h.coproduct(m)
    return run


def pbw_jobs(hopfalg, inputs):
    """The fixed D(1,...,1) k=4 product, seeded products on a seeded D,
    the coproduct of W^3Z^3X^3Y^3 in K and the antipode check on D."""
    ones = dict.fromkeys(D_NAMES, 1)
    jobs = [("D1_k4_product",
             _product_job(hopfalg, ones, {"W": 4, "Z": 4}, {"X": 4, "Y": 4}),
             lambda ans: check_product(*ans))]
    for a, b, c, d in inputs["products"]:
        jobs.append(("seeded_product",
                     _product_job(hopfalg, inputs["D"], {"W": a, "Z": b},
                                  {"X": c, "Y": d}),
                     lambda ans: check_product(*ans)))
    jobs.append(("K_coproduct_3333",
                 _coproduct_job(hopfalg, {"W": 3, "Z": 3, "X": 3, "Y": 3}),
                 lambda ans: check_coproduct(*ans, want_terms=9026)))
    jobs.append(("D_antipode_7",
                 lambda: _hopf(hopfalg, "D", inputs["D"]).verify_antipode(7),
                 check_report))
    return jobs


def _replicate(hopfalg):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = hopfalg.cli.main(["replicate", "--json"])
    return code, json.loads(out.getvalue())


def replicate_jobs(hopfalg, inputs):
    """`hopf replicate --json` in-process: the nine-criterion battery."""
    return [("replicate", lambda: _replicate(hopfalg), check_replication)]


JOBS = {"cobar": cobar_jobs, "pbw": pbw_jobs, "replicate": replicate_jobs}
