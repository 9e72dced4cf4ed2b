"""The replication battery walks the catalog once, one entry at a time.

`run_replication` builds each catalog entry once and envelopes each CLA
once, runs each generator-level check once per presentation, drops an
entry before it builds the next, and gives every criterion the same row
whether it runs in the full walk or alone, on the real catalog and on
catalogs with injected faults.
"""

import gc
import weakref

import pytest

from hopfalg import cla, cobar, replicate
from hopfalg.catalog import FamilySpec, build, list_catalog
from hopfalg.cla import CLA, GradedLie
from hopfalg.errors import InputError
from hopfalg.exactlin import Matrix
from hopfalg.hopf import HopfPresentation
from hopfalg.ore import OrePresentation


_real_build = replicate.build


def _spy(monkeypatch, module, name, record):
    real = getattr(module, name)

    def spy(*args):
        result = real(*args)
        record(args, result)
        return result
    monkeypatch.setattr(module, name, spy)


def _rows(results):
    return [(r.number, r.passed, r.detail) for r in results]


def test_one_build_per_entry_and_one_envelope_per_cla(monkeypatch):
    builds, envelopes = [], []
    _spy(monkeypatch, replicate, "build",
         lambda args, obj: builds.append(args[0].describe()))
    _spy(monkeypatch, cla, "_checked_envelope",
         lambda args, pair: envelopes.append(args[0]))
    assert all(r.passed for r in replicate.run_replication())
    catalog = list_catalog()
    assert builds == [spec.describe() for spec in catalog]
    assert len(envelopes) == sum(spec.tag.startswith("cla")
                                 for spec in catalog) == 15


def test_each_entry_is_dropped_before_the_next_is_built(monkeypatch):
    # gc is off, so only reference counting frees an entry: a reference
    # cycle through a presentation's caches would keep it alive here
    alive = []  # (label, weakref) of every object the walk has built

    def watch(obj, label):
        refs = [obj]
        if isinstance(obj, HopfPresentation):
            refs.append(obj.algebra)
        alive.extend((label, weakref.ref(r)) for r in refs)

    def build(spec):
        stale = [label for label, ref in alive if ref() is not None]
        assert stale == [], f"alive while building {spec.describe()}"
        obj = _real_build(spec)
        watch(obj, spec.describe())
        return obj

    def on_envelope(args, pair):
        if pair[1] is not None:
            watch(pair[1], f"U({args[0]!r})")

    monkeypatch.setattr(replicate, "build", build)
    _spy(monkeypatch, cla, "_checked_envelope", on_envelope)
    gc.collect()
    gc.disable()
    try:
        assert all(r.passed for r in replicate.run_replication())
    finally:
        gc.enable()
    assert len(alive) > 2 * len(list_catalog())
    assert [label for label, ref in alive if ref() is not None] == []


def test_no_elimination_repeats_within_an_entry(monkeypatch):
    # every answer that does not depend on the bound is kept on the
    # entry's object: P and P2, the C_<=G' profiles of the cobar
    # certificate, the lantern's CE H^2 and a CLA's ker delta
    current = []
    eliminated = []

    def build(spec):
        current.append(spec.describe())
        return _real_build(spec)

    # the one modular pass of every elimination, echelon form or rank
    # profile alike
    forward = Matrix._forward_mod_p

    def spy(self):
        eliminated.append((current[-1], self.rows, self.cols,
                           frozenset(self.entries.items())))
        return forward(self)

    monkeypatch.setattr(replicate, "build", build)
    monkeypatch.setattr(Matrix, "_forward_mod_p", spy)
    assert all(r.passed for r in replicate.run_replication())
    repeated = sorted({key[:3] for key in eliminated
                       if eliminated.count(key) > 1})
    assert repeated == []
    assert len(eliminated) <= 89


def test_each_generator_level_check_runs_once_per_presentation(
        monkeypatch):
    # the overlap loop of PBW consistency, the relation loop of
    # compatibility and the generator loop of coassociativity; their
    # reports are kept on the presentation, so the battery, the antipode
    # certificate, the C_n bound and the CLA check read one run; make_lie
    # checks Jacobi alone, so criterion 8's U(g) runs no compatibility loop
    current = []
    runs = {}     # loop -> [(entry, object id)]
    objects = []  # keeps every checked object, so no id is reused

    def build(spec):
        current.append(spec.describe())
        return _real_build(spec)

    def spy(cls, name):
        loop = getattr(cls, name)

        def run(self):
            objects.append(self)
            runs.setdefault(name, []).append((current[-1], id(self)))
            return loop(self)
        monkeypatch.setattr(cls, name, run)

    monkeypatch.setattr(replicate, "build", build)
    spy(OrePresentation, "verify_pbw_consistency")
    spy(HopfPresentation, "_compatibility")
    spy(HopfPresentation, "_coassociativity")
    assert all(r.passed for r in replicate.run_replication())
    counts = {name: (len(keys), len(set(keys))) for name, keys in runs.items()}
    assert counts == {"verify_pbw_consistency": (34, 34),
                      "_compatibility": (34, 34),
                      "_coassociativity": (34, 34)}


def _corrupted_catalog():
    # a B-type CLA with the forced -1 coefficient flipped
    return list_catalog() + [
        FamilySpec("cla_b_corrupt", {}, "corrupted b(1)")]


def _corrupted_build(spec):
    if spec.tag == "cla_b_corrupt":
        return CLA(["x", "y", "z"],
                   brackets={(0, 1): {1: 1}, (2, 0): {2: 1, 1: 1}},
                   delta={2: {(0, 1): 1, (1, 0): -1}})
    return _real_build(spec)


def _raising_build(labels):
    def build(spec):
        if spec.describe() in labels:
            raise InputError(f"injected failure for {spec.describe()}")
        return _corrupted_build(spec)
    return build


CORRUPTED = {"1": "corrupted b(1): bracket/coproduct compatibility in U(L)",
             "3": "corrupted b(1): CLA axioms fail, cannot envelope: "
                  "bracket/coproduct compatibility in U(L)",
             "7": "corrupted b(1): CLA axioms fail, cannot envelope: "
                  "bracket/coproduct compatibility in U(L)"}
# a HopfAlgError is the failure of its entry, and the walk goes on: B(1)
# raises before the corrupted b(1) is reached and hides it from no criterion
B1 = "B(1): injected failure for B(1)"
U4 = "U(abelian, dim 4): injected failure for U(abelian, dim 4)"
RAISING = {"1": f"{B1}; {U4}", "2": B1, "4": B1, "6": f"{B1}; {U4}",
           "7": f"{B1}; {U4}"}
RAISING_AND_CORRUPTED = {
    "1": f"{B1}; {CORRUPTED['1']}", "2": B1, "3": CORRUPTED["3"], "4": B1,
    "6": B1, "7": f"{B1}; {CORRUPTED['7']}"}


@pytest.mark.parametrize("catalog, build, failed", [
    (list_catalog, _real_build, {}),
    (_corrupted_catalog, _corrupted_build, CORRUPTED),
    (list_catalog, _raising_build({"B(1)", "U(abelian, dim 4)"}), RAISING),
    (_corrupted_catalog, _raising_build({"B(1)"}), RAISING_AND_CORRUPTED),
], ids=["catalog", "corrupted", "raising", "raising-and-corrupted"])
def test_a_criterion_alone_gives_its_row_of_the_full_run(
        monkeypatch, catalog, build, failed):
    monkeypatch.setattr(replicate, "list_catalog", catalog)
    monkeypatch.setattr(replicate, "build", build)
    full = _rows(replicate.run_replication())
    assert _rows([criterion() for criterion in replicate.CRITERIA]) == full
    assert {str(n): detail for n, passed, detail in full
            if not passed} == failed


@pytest.mark.parametrize("criterion, labels", [
    (replicate.criterion_cobar_cohomology,
     ["A(0,0,0)", "A(1,0,0)", "A(0,0,1)", "B(0)", "B(1)"]),
    (replicate.criterion_antipode_behavior,
     ["A(0,0,0)", "A(1,0,0)", "A(0,0,1)", "A(1,1,1)", "A(1,2,0)", "B(0)",
      "B(1)", "U(abelian, dim 4)", "U(Heisenberg, dim 3)",
      "U(solvable, dim 2)"]),
    (replicate.criterion_growth, ["D({0,1},{0},{0})"]),
], ids=["cobar", "antipode", "growth"])
def test_a_criterion_alone_builds_only_the_entries_it_reads(
        monkeypatch, criterion, labels):
    # also the guard that the catalog still carries every entry these
    # criteria check by their parameters
    built = []
    _spy(monkeypatch, replicate, "build",
         lambda args, obj: built.append(args[0].describe()))
    assert criterion().passed
    assert built == labels


def test_cobar_criterion_checks_the_lantern_prediction(monkeypatch):
    # a planted CE class of degree 4, within the bounds 5 and 6 that the
    # criterion reads, which no report reaches
    ce_h2_dims = GradedLie.ce_h2_dims
    monkeypatch.setattr(GradedLie, "ce_h2_dims",
                        lambda self, grades=None: {**ce_h2_dims(self, grades),
                                                   4: 1})
    result = replicate.criterion_cobar_cohomology()
    failures = result.detail.split("; ")
    assert not result.passed
    assert all("lantern CE predicts" in f for f in failures)
    assert [f.split(":")[0] for f in failures] == [
        "A(0,0,0)", "A(1,0,0)", "A(0,0,1)", "B(0)", "B(1)"]


def test_cobar_criterion_reads_complete(monkeypatch):
    # with G' raised past the criterion's bound 6, no deformed report is
    # complete, though its H^2 and the lantern's prediction are unchanged
    monkeypatch.setattr(cobar, "_g_prime", lambda h, ce: 7)
    result = replicate.criterion_cobar_cohomology()
    failures = result.detail.split("; ")
    assert not result.passed
    assert all("H^2 at N=6 is 2, expected 2, complete False, lantern CE "
               "predicts 2" in f for f in failures)
    assert [f.split(":")[0] for f in failures] == [
        "A(1,0,0)", "A(0,0,1)", "B(0)", "B(1)"]


def test_lantern_criterion_reads_the_degree_one_certificate(monkeypatch):
    # with no lantern generated in degree 1, the degree profiles fix no
    # type: exactly D, E, F, K and the dim-4 CLAs fail
    monkeypatch.setattr(GradedLie, "generated_in_degree_one",
                        lambda self: False)
    result = replicate.criterion_lanterns()
    assert not result.passed
    # one failure per entry, in catalog order, each led by its label
    failures = result.detail.split("; ")
    want = [spec.describe() for spec in list_catalog()
            if spec.tag in ("D", "E", "F", "K")
            or (spec.tag.startswith("cla") and build(spec).dim == 4)]
    assert len(want) == len(failures) == 18
    assert all(f.startswith(f"{label}: ") for label, f in zip(want, failures))


def test_criterion_seconds_come_from_a_monotonic_clock(monkeypatch):
    def wall_clock():
        raise AssertionError("the wall clock is not monotonic")
    monkeypatch.setattr(replicate.time, "time", wall_clock)
    result = replicate.criterion_growth()
    assert result.passed and result.seconds > 0
