"""Benchmark of the hopfalg library: time to exact answers, end to end and by layer.

    python3 perfbench/run.py --workload cobar --seed 1 --seconds 30 --trace 0

Workloads (closed loop: one process, one thread, the job list run round
after round while another round fits in --seconds):

    cobar      h2_report on K (N=8), a seeded D (N=7) and A(0,0,0) by bidegree
    pbw        PBW products, a large coproduct and the antipode check
    replicate  `hopf replicate --json` in-process (the seed is not used)

Every job builds its presentation fresh and its answer is checked exactly
after its timer stops.  Timings are medians, in seconds at a fixed
reference speed of the machine (see speed.py); the raw wall-clock medians
are printed too.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics; the line above it gives
sample counts, per-job medians and the raw figures.

With --trace 0 the metrics are end to end.  With --trace 1 the library's
public entry points are wrapped (see tracing.py) and the metrics are per
layer; the spans of the first round are written to perfbench/out/, and
every work count must repeat exactly from round to round and from one
traced run of the same seed and sources to the next, or the run is not
correct.  Exit status 2 means hopfalg could not be imported from src/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import resource
import sys
import traceback
import warnings
from pathlib import Path
from statistics import median
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 5

sys.path.insert(0, str(ROOT / "src"))

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def load_library():
    """Import hopfalg afresh from src/, dropping any earlier import."""
    for name in [n for n in sys.modules
                 if n == "hopfalg" or n.startswith("hopfalg.")]:
        del sys.modules[name]
    hopfalg = importlib.import_module("hopfalg")
    if Path(hopfalg.__file__).parent != ROOT / "src" / "hopfalg":
        raise ImportError(f"hopfalg found at {hopfalg.__file__}, not in src/")
    importlib.import_module("hopfalg.cli")
    return hopfalg


def set_up(workload: str, seed: int):
    """Import the library and generate the inputs, several times; the last
    import is the one used.  Returns the raw times and their speed scale."""
    gauge = speed.Gauge()
    times = []
    for _ in range(SETUP_REPEATS):
        gauge.sample()
        t0 = perf_counter()
        hopfalg = load_library()
        inputs = workloads.make_inputs(workload, seed)
        times.append(perf_counter() - t0)
    gauge.sample()
    return hopfalg, inputs, times, gauge.scale()


def run_rounds(jobs, seconds: float, min_rounds: int, tracer=None):
    """Run the job list round after round; return one record per round.

    A new round starts only while it is expected, from the previous
    round's length, to end within `seconds` (at least `min_rounds` run).
    A round's "seconds" counts its jobs and their checks, not the
    reference timings of the speed gauge, and "scale" converts the round's
    timings to the reference speed."""
    rounds = []
    began = perf_counter()
    while len(rounds) < min_rounds or (
            perf_counter() - began + rounds[-1]["wall"] <= seconds):
        gc.collect()
        if tracer is not None:
            tracer.reset_seen()
        record = {"jobs": [], "failures": [], "seconds": 0.0}
        gauge = speed.Gauge()
        t_round = perf_counter()
        gauge.sample()
        for name, run, check in jobs:
            gauge.sample_if_due()
            if tracer is not None:
                tracer.job_id += 1
                span = tracer.open(tracing.JOB)
            t0 = perf_counter()
            try:
                answer, error = run(), None
            except Exception:
                error = traceback.format_exc(-3)
            elapsed = perf_counter() - t0
            if tracer is not None:
                tracer.close(span)
            try:
                failures = check(answer) if error is None else [error]
            except Exception:
                failures = [traceback.format_exc(-3)]
            record["seconds"] += perf_counter() - t0
            record["jobs"].append((name, elapsed, bool(failures)))
            record["failures"] += [f"{name}: {f}" for f in failures]
        gauge.sample()
        record["wall"] = perf_counter() - t_round
        record["scale"] = gauge.scale()
        if tracer is not None:
            record["counts"] = tracer.take_counts()
            spans = tracer.take_spans()
            record["self_s"] = tracing.fold(spans)
            if not rounds:
                record["spans"] = spans
        rounds.append(record)
    return rounds


def summary(workload, seed, setup_times, rounds, traced):
    """The line before the result: sample counts, per-job medians at the
    reference speed, raw (unscaled) medians, and each round's speed scale."""
    by_job: dict[str, list[float]] = {}
    scaled: dict[str, list[float]] = {}
    for r in rounds:
        for name, t, _ in r["jobs"]:
            by_job.setdefault(name, []).append(t)
            scaled.setdefault(name, []).append(t * r["scale"])
    latencies = sorted(t for ts in scaled.values() for t in ts)
    info = {"workload": workload, "seed": seed, "traced": traced,
            "setup_samples": len(setup_times), "rounds": len(rounds),
            "jobs": len(latencies),
            "job_medians_s": {n: median(ts) for n, ts in scaled.items()},
            "raw_setup_s": median(setup_times),
            "raw_round_s": median([r["seconds"] for r in rounds]),
            "raw_job_medians_s": {n: median(ts) for n, ts in by_job.items()},
            "round_scales": [r["scale"] for r in rounds]}
    # highest percentile with at least ten samples beyond it
    if len(latencies) >= 20:
        q = int(100 * (1 - 10 / len(latencies)))
        info[f"job_p{q}_s"] = latencies[int(len(latencies) * q / 100)]
    return info


def end_to_end_metrics(setup_times, setup_scale, rounds):
    """Timings in seconds at the reference speed (see speed.py)."""
    latencies = [t * r["scale"] for r in rounds for _, t, _ in r["jobs"]]
    failed = sum(bad for r in rounds for _, _, bad in r["jobs"])
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "setup_s": (median(setup_times) * setup_scale, "s"),
        "round_s": (median([r["seconds"] * r["scale"] for r in rounds]), "s"),
        "job_p50_s": (median(latencies), "s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
        "pass_frac": ((len(latencies) - failed) / len(latencies), "ratio"),
    }
    return len(latencies), failed, values


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer_metrics(rounds):
    """Per-round self times (median over rounds, at the reference speed)
    and per-round work counts."""
    def self_s(name):
        return median([r["self_s"].get(name, 0.0) * r["scale"]
                       for r in rounds])

    counts = rounds[0]["counts"]

    def count(key):
        return counts.get(key, 0)

    m = {}
    calls = count("ore.mul_monomials.calls")
    m["ore.mul_monomials.calls"] = (calls, "count")
    m["ore.mul_monomials.misses"] = (count("ore.mul_monomials.misses"), "count")
    m["ore.mul_monomials.hit_ratio"] = (
        _ratio(calls - count("ore.mul_monomials.misses"), calls), "ratio")
    m["ore.mul_monomials.terms_out"] = (count("ore.mul_monomials.terms_out"),
                                        "count")
    for fn in ("mul_monomials", "mul", "verify_pbw_consistency"):
        m[f"ore.{fn}.self_s"] = (self_s(f"ore.{fn}"), "s")

    for fn in ("coproduct", "tensor_mul"):
        m[f"hopf.{fn}.calls"] = (count(f"hopf.{fn}.calls"), "count")
        m[f"hopf.{fn}.self_s"] = (self_s(f"hopf.{fn}"), "s")
        m[f"hopf.{fn}.terms_out"] = (count(f"hopf.{fn}.terms_out"), "count")
    calls = count("hopf.reduced_coproduct.calls")
    m["hopf.reduced_coproduct.calls"] = (calls, "count")
    m["hopf.reduced_coproduct.self_s"] = (self_s("hopf.reduced_coproduct"), "s")
    m["hopf.reduced_coproduct.distinct_ratio"] = (
        _ratio(count("hopf.reduced_coproduct.distinct"), calls), "ratio")
    m["hopf.antipode.calls"] = (count("hopf.antipode.calls"), "count")
    m["hopf.antipode.self_s"] = (self_s("hopf.antipode"), "s")
    m["hopf.verify.self_s"] = (sum(self_s("hopf." + v) for v in (
        "verify_coassociativity", "verify_compatibility", "verify_antipode",
        "verify_morphism")), "s")

    pre = "exactlin.row_echelon."
    m[pre + "calls"] = (count(pre + "calls"), "count")
    m[pre + "self_s"] = (self_s("exactlin.row_echelon"), "s")
    for key in ("rows", "cols", "nnz", "max_nnz", "pivots"):
        m[pre + key] = (count(pre + key), "count")
    m[pre + "pivot_ratio"] = (
        _ratio(count(pre + "pivots"), count(pre + "nonzero_rows")), "ratio")
    m[pre + "max_entry_bits"] = (count(pre + "max_entry_bits"), "bits")
    m["exactlin.solve.calls"] = (count("exactlin.solve.calls"), "count")
    m["exactlin.solve.per_matrix"] = (
        _ratio(count("exactlin.solve.calls"),
               count("exactlin.solve.distinct_matrices")), "ratio")
    for fn in ("kernel_basis", "inverse", "rank"):
        m[f"exactlin.{fn}.calls"] = (count(f"exactlin.{fn}.calls"), "count")

    m["cobar.build_complex.calls"] = (count("cobar.build_complex.calls"),
                                      "count")
    m["cobar.build_complex.self_s"] = (self_s("cobar.build_complex"), "s")
    m["cobar.h2_report.self_s"] = (self_s("cobar.h2_report"), "s")
    for key in ("rank2_size", "rank3_size", "d2_nnz"):
        m["cobar." + key] = (count("cobar." + key), "count")

    for fn in ("primitive_space", "p2_space", "coradical_filtration",
               "extract_cla", "lantern_of_hopf"):
        m[f"structure.{fn}.calls"] = (count(f"structure.{fn}.calls"), "count")
        m[f"structure.{fn}.self_s"] = (self_s(f"structure.{fn}"), "s")
    for fn in ("verify_cla", "enveloping", "lantern_of_cla", "cla_transform"):
        m[f"cla.{fn}.self_s"] = (self_s(f"cla.{fn}"), "s")
    m["catalog.build.calls"] = (count("catalog.build.calls"), "count")
    m["catalog.build.self_s"] = (self_s("catalog.build"), "s")
    for n in range(1, 10):
        m[f"replicate.criterion_{n}_s"] = (
            self_s(f"replicate.criterion_{n}_s"), "s")
    m["cli.main.self_s"] = (self_s("cli.main"), "s")

    for layer in ("ore", "hopf", "exactlin", "cobar", "structure", "cla",
                  "catalog", "replicate", "cli", "bench"):
        m[f"layer.{layer}.self_s"] = (self_s("layer." + layer), "s")
    m["trace.round_s"] = (median([r["seconds"] * r["scale"] for r in rounds]),
                          "s")
    return m


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "hopfalg").glob("*.py")) + sorted(
            HERE.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def count_mismatches(workload, seed, rounds) -> list[str]:
    """Work counts must repeat exactly: between the rounds of this run, and
    against an earlier traced run of the same seed and the same sources."""
    first = rounds[0]["counts"]
    problems = [f"round {i + 1} counts differ from round 1"
                for i, r in enumerate(rounds[1:], 1) if r["counts"] != first]
    OUT.mkdir(exist_ok=True)
    path = OUT / f"counts-{workload}-seed{seed}-{source_digest()}.json"
    if path.exists():
        earlier = json.loads(path.read_text())
        diff = sorted(k for k in set(earlier) | set(first)
                      if earlier.get(k) != first.get(k))
        if diff:
            problems.append(f"counts differ from {path.name}: {diff}")
    else:
        path.write_text(json.dumps(first, sort_keys=True, indent=1))
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.JOBS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    warnings.filterwarnings("ignore", message=".*outside the normalized classes")
    try:
        hopfalg, inputs, setup_times, setup_scale = set_up(args.workload,
                                                           args.seed)
    except ImportError as exc:
        print(f"cannot import hopfalg from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.instrument()
    jobs = workloads.JOBS[args.workload](hopfalg, inputs)
    rounds = run_rounds(jobs, args.seconds, 2 if tracer else 1, tracer)

    attempted, failed, metrics = end_to_end_metrics(setup_times, setup_scale,
                                                    rounds)
    problems = [f for r in rounds for f in r["failures"]]
    if tracer is not None:
        metrics = per_layer_metrics(rounds)
        problems += count_mismatches(args.workload, args.seed, rounds)
        OUT.mkdir(exist_ok=True)
        tracing.write_spans(rounds[0]["spans"],
                            OUT / f"spans-{args.workload}-seed{args.seed}.tsv")
    for p in problems:
        print(p, file=sys.stderr)
    print(json.dumps(summary(args.workload, args.seed, setup_times, rounds,
                             bool(tracer))))
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
