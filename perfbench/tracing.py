"""Outside-in layer tracing for the hopfalg benchmark.

`Tracer.instrument` replaces public functions and methods of the library
with wrappers that record one span per call: name, start, end, parent span
and job id.  Methods are wrapped on their class and functions in every
`hopfalg` module that bound them, so calls made inside the library
(`self.row_echelon()` in `solve`, `p.mul_monomials` in a tensor product)
are recorded too.  Private helpers are not wrapped; their time is part of
their caller's self time.

Spans stay in memory in flat arrays until the end of each round, when they
are folded into per-name self times; the first round's spans are kept and
written out when the run ends.  Self time is a span's duration minus the
durations of its direct children; calls are strictly nested in one thread,
so children never overlap.

Work counts are taken by hooks that run after the wrapped call returns,
inside a `trace.hook` span, so their cost is not charged to any layer.
"""

from __future__ import annotations

import functools
import sys
import weakref
from array import array
from collections import defaultdict
from time import perf_counter

HOOK = "trace.hook"
JOB = "bench.job"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name_id = array("q")
        self.job = array("q")
        self.job_id = -1
        self._stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.maxima: dict[str, int] = defaultdict(int)
        self.reset_seen()

    # -- span recording --------------------------------------------------

    def _name(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self._name(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.job.append(self.job_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int):
        self.end[idx] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, hook=None):
        """Wrapper recording a span per call; `hook(args, result)` takes counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if hook is not None:
                h = self.open(HOOK)
                try:
                    hook(args, result)
                finally:
                    self.close(h)
            return result

        traced.__wrapped__ = fn
        return traced

    def take_spans(self) -> list[tuple]:
        """The spans recorded so far as (name, start, end, parent, job);
        the buffers are emptied.  Call only when no span is open."""
        names = self.names
        out = [(names[self.name_id[i]], self.start[i], self.end[i],
                self.parent[i], self.job[i]) for i in range(len(self.start))]
        for buf in (self.start, self.end, self.parent, self.name_id, self.job):
            del buf[:]
        return out

    # -- counters ---------------------------------------------------------

    def reset_seen(self):
        """Forget first-seen keys; called at the start of every round."""
        self._seen_mul = weakref.WeakKeyDictionary()
        self._seen_reduced = weakref.WeakKeyDictionary()
        self._seen_matrices: set = set()

    def add(self, key: str, n: int = 1):
        self.counts[key] += n

    def peak(self, key: str, n: int):
        if n > self.maxima[key]:
            self.maxima[key] = n

    def take_counts(self) -> dict[str, int]:
        """Counts since the previous call (maxima included), then reset."""
        out = dict(self.counts)
        out.update(self.maxima)
        self.counts = defaultdict(int)
        self.maxima = defaultdict(int)
        return out

    # -- hooks --------------------------------------------------------------

    def _hook_mul_monomials(self, args, result):
        p, a, b = args[0], args[1], args[2]
        seen = self._seen_mul.setdefault(p, set())
        self.add("ore.mul_monomials.calls")
        self.add("ore.mul_monomials.terms_out", len(result))
        if (a, b) not in seen:
            seen.add((a, b))
            self.add("ore.mul_monomials.misses")

    def _hook_reduced_coproduct(self, args, result):
        h, a = args[0], args[1]
        seen = self._seen_reduced.setdefault(h, set())
        self.add("hopf.reduced_coproduct.calls")
        key = frozenset(a.terms.items())
        if key not in seen:
            seen.add(key)
            self.add("hopf.reduced_coproduct.distinct")

    def _hook_terms(self, prefix):
        def hook(args, result):
            self.add(prefix + ".calls")
            self.add(prefix + ".terms_out", len(result.terms))
        return hook

    def _hook_calls(self, prefix):
        def hook(args, result):
            self.add(prefix + ".calls")
        return hook

    def _hook_row_echelon(self, args, result):
        m = args[0]
        reduced, pivots = result
        pre = "exactlin.row_echelon."
        self.add(pre + "calls")
        self.add(pre + "rows", m.rows)
        self.add(pre + "cols", m.cols)
        self.add(pre + "nnz", len(m.entries))
        self.peak(pre + "max_nnz", len(m.entries))
        self.add(pre + "nonzero_rows", len({i for i, _ in m.entries}))
        self.add(pre + "pivots", len(pivots))
        bits = 0
        for row in reduced:
            for v in row.values():
                bits = max(bits, abs(v.numerator).bit_length(),
                           v.denominator.bit_length())
        self.peak(pre + "max_entry_bits", bits)

    def _hook_solve(self, args, result):
        m = args[0]
        self.add("exactlin.solve.calls")
        key = (m.rows, m.cols, frozenset(m.entries.items()))
        if key not in self._seen_matrices:
            self._seen_matrices.add(key)
            self.add("exactlin.solve.distinct_matrices")

    def _hook_build_complex(self, args, cx):
        self.add("cobar.build_complex.calls")
        self.add("cobar.rank2_size", len(cx.bases[2]))
        self.add("cobar.rank3_size", len(cx.bases[3]))
        self.add("cobar.d2_nnz", len(cx.d2.entries))

    # -- instrumentation ------------------------------------------------------

    def instrument(self) -> None:
        """Wrap the public entry points of every layer of the imported
        `hopfalg`."""
        from hopfalg import catalog, cla, cli, cobar, replicate, structure
        from hopfalg.exactlin import Matrix
        from hopfalg.hopf import HopfPresentation, TensorElement
        from hopfalg.ore import OrePresentation

        methods = [
            (OrePresentation, "mul_monomials", "ore.mul_monomials",
             self._hook_mul_monomials),
            (OrePresentation, "mul", "ore.mul", None),
            (OrePresentation, "verify_pbw_consistency",
             "ore.verify_pbw_consistency", None),
            (HopfPresentation, "coproduct", "hopf.coproduct",
             self._hook_terms("hopf.coproduct")),
            (HopfPresentation, "reduced_coproduct", "hopf.reduced_coproduct",
             self._hook_reduced_coproduct),
            (TensorElement, "__mul__", "hopf.tensor_mul",
             self._hook_terms("hopf.tensor_mul")),
            (HopfPresentation, "antipode", "hopf.antipode",
             self._hook_calls("hopf.antipode")),
            (Matrix, "row_echelon", "exactlin.row_echelon",
             self._hook_row_echelon),
            (Matrix, "solve", "exactlin.solve", self._hook_solve),
        ]
        for verify in ("verify_coassociativity", "verify_compatibility",
                       "verify_antipode", "verify_morphism"):
            methods.append((HopfPresentation, verify, "hopf." + verify, None))
        for fn in ("kernel_basis", "inverse", "rank"):
            methods.append((Matrix, fn, "exactlin." + fn,
                            self._hook_calls("exactlin." + fn)))
        for cls, attr, name, hook in methods:
            setattr(cls, attr, self.wrap(name, getattr(cls, attr), hook))

        functions = [
            (cobar, "build_complex", self._hook_build_complex),
            (cobar, "h2_report", None),
            (catalog, "build", self._hook_calls("catalog.build")),
            (cli, "main", None),
        ]
        for fn in ("primitive_space", "p2_space", "coradical_filtration",
                   "extract_cla", "lantern_of_hopf"):
            functions.append((structure, fn,
                              self._hook_calls("structure." + fn)))
        for fn in ("verify_cla", "enveloping", "lantern_of_cla",
                   "cla_transform"):
            functions.append((cla, fn, None))
        modules = [m for name, m in list(sys.modules.items())
                   if name == "hopfalg" or name.startswith("hopfalg.")]
        for module, attr, hook in functions:
            layer = module.__name__.rsplit(".", 1)[-1]
            original = getattr(module, attr)
            traced = self.wrap(f"{layer}.{attr}", original, hook)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, traced)

        # the battery iterates this list at call time
        replicate.CRITERIA[:] = [
            self.wrap(f"replicate.criterion_{c.number}", c)
            for c in replicate.CRITERIA]


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus its direct children's."""
    spans = list(spans)
    own = [e - s for _, s, e, _, _ in spans]
    for _, s, e, parent, _ in spans:
        if parent >= 0:
            own[parent] -= e - s
    return own


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def fold(spans) -> dict[str, float]:
    """Self time summed per span name and per layer ("layer.<name>"), and
    the full duration of each replication criterion."""
    acc: dict[str, float] = defaultdict(float)
    for (name, s, e, _, _), t in zip(spans, self_times(spans)):
        acc[name] += t
        acc["layer." + layer_of(name)] += t
        if name.startswith("replicate.criterion_"):
            acc[name + "_s"] += e - s
    return dict(acc)


def write_spans(spans, path):
    with open(path, "w") as out:
        out.write("name\tstart\tend\tparent\tjob\n")
        for name, s, e, parent, job in spans:
            out.write(f"{name}\t{s!r}\t{e!r}\t{parent}\t{job}\n")
