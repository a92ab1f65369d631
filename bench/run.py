#!/usr/bin/env python3
"""Benchmark of intpoly: three seeded closed-loop workloads, one client each.

    python3 bench/run.py --workload search|orderings|requests \
        --seed N --seconds S --trace 0|1
    python3 bench/run.py --selftest

Run from the root of a source tree; the program is imported from `src/`.
With `--trace 0` the run reports the end-to-end metrics, with `--trace 1`
the per-layer metrics from a traced run.  The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.  Raw
results and trace dumps go to bench/out/.  See bench/README.md.
"""
from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOADS = {"search": "search", "orderings": "orderings", "requests": "cli_requests"}
SETUP_STARTS = 5
MIN_COMPLETED = 100  # so that at least ten operations lie beyond p90

TRACED = (
    "arith.vp", "arith.is_prime", "arith.padic_residue",
    "poly.mul", "poly.eval", "poly.to_binomial_basis", "poly.poly_sqrt", "poly.residue_image",
    "matrices.unit_content_decide", "matrices.snf_with_transforms",
    "example_lab.reduce_relation", "example_lab.bounded_search",
    "vorder.v_ordering", "vorder.expand_in_basis", "vorder.int_membership",
    "spectrum.ideal_membership",
    "sequences.classify_window", "sequences.image_window_classify",
    "cli.main", "cli.build_parser",
)


# Host-speed correction.  On a shared host the CPU's speed can drift by tens
# of percent over minutes, more than the bounds allow.  Before
# and after each timed round and each fresh start the benchmark times a fixed
# kernel of pure-Python exact arithmetic, independent of intpoly, and scales
# the measured times by KERNEL_NOMINAL_S over the kernel's mean time around
# them: the reported times are those of a host on which the kernel takes
# 5 ms.  Raw times stay in the raw result file.
KERNEL_NOMINAL_S = 0.005


def reference_kernel() -> None:
    """Products of short Fraction coefficient lists, the program's kind of work."""
    for _ in range(4):
        a = [Fraction(k, k + 1) for k in range(1, 8)]
        b = [Fraction(k + 2, 2 * k + 1) for k in range(1, 6)]
        for _ in range(10):
            out = [Fraction(0)] * (len(a) + len(b) - 1)
            for i, x in enumerate(a):
                for j, y in enumerate(b):
                    out[i + j] += x * y
            a = [c / (1 + k) for k, c in enumerate(out[:7])]


def kernel_time() -> float:
    """Median of three timings of the reference kernel."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        reference_kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def host_scales(kernel_times) -> list:
    """Scale of each interval between consecutive kernel timings."""
    return [2 * KERNEL_NOMINAL_S / (a + b) for a, b in zip(kernel_times, kernel_times[1:])]


class Raised:
    """The answer of an operation that raised instead of returning."""

    def __init__(self, exc: BaseException):
        self.text = f"{type(exc).__name__}: {exc}"

    def __eq__(self, other):
        return isinstance(other, Raised) and other.text == self.text


def load_program() -> None:
    if not (SRC / "intpoly" / "__init__.py").is_file():
        sys.exit(f"bench: no program source at {SRC / 'intpoly'}; run from a source tree")
    sys.path[:0] = [str(BENCH), str(SRC)]


def safe_call(op):
    try:
        return op.call()
    except Exception as exc:  # an operation that raises has failed
        return Raised(exc)


def judge(ops, answers) -> tuple:
    """(failed mask, correct): check every answer against its own computation."""
    from exact import Mismatch

    failed, correct, shown = [], True, set()
    for op, answer in zip(ops, answers):
        try:
            ok = not isinstance(answer, Raised) and op.check(answer)
        except Mismatch as exc:
            print(f"bench: wrong answer ({op.kind}): {exc}", file=sys.stderr)
            ok, correct = True, False
        if not ok and op.kind not in shown:
            shown.add(op.kind)
            text = answer.text if isinstance(answer, Raised) else repr(answer)[:200]
            print(f"bench: failed ({op.kind}): {text}", file=sys.stderr)
        failed.append(not ok)
    return failed, correct


def timed_round(ops, reference, call=safe_call) -> tuple:
    """Run every operation once; (latencies, all answers equal the reference)."""
    latencies, answers = [], []
    prev = time.perf_counter()
    for op in ops:
        answers.append(call(op))
        now = time.perf_counter()
        latencies.append(now - prev)
        prev = now
    return latencies, answers == reference


# -- set-up -----------------------------------------------------------------------


def probe(workload: str, seed: int) -> None:
    """Child of `setup_times`: import intpoly, build the inputs, report."""
    start = time.perf_counter()
    import intpoly  # noqa: F401

    imported = time.perf_counter()
    importlib.import_module(WORKLOADS[workload]).build(seed)
    print(json.dumps({"import_s": imported - start, "build_s": time.perf_counter() - imported}))


def setup_times(workload: str, seed: int, starts: int = SETUP_STARTS) -> tuple:
    """Wall times of fresh interpreters that import intpoly and build the
    workload's inputs, the host scale measured before each, and the import
    times the interpreters measured themselves."""
    walls, kernel, imports = [], [kernel_time()], []
    for _ in range(starts):
        begin = time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        walls.append(time.perf_counter() - begin)
        kernel.append(kernel_time())
        imports.append(json.loads(done.stdout.splitlines()[-1])["import_s"])
    return walls, host_scales(kernel), imports


def count_calls(ops) -> int:
    """Python and builtin calls (generator resumptions included) made while
    replaying the operations once under a profile hook."""
    count = 0

    def hook(frame, event, arg):
        nonlocal count
        if event == "call" or event == "c_call":
            count += 1

    sys.setprofile(hook)
    try:
        for op in ops:
            safe_call(op)
    finally:
        sys.setprofile(None)
    return count


# -- the two kinds of run ---------------------------------------------------------


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload: str, seed: int, seconds: float, starts: int = SETUP_STARTS,
               min_completed: int = MIN_COMPLETED) -> dict:
    walls, setup_scales, _ = setup_times(workload, seed, starts)
    ops = importlib.import_module(WORKLOADS[workload]).build(seed)
    reference = [safe_call(op) for op in ops]  # warm-up round, checked below
    failed, correct = judge(ops, reference)

    raw, kernel = [], [kernel_time()]
    while sum(map(sum, raw)) < seconds or len(raw) * (len(ops) - sum(failed)) < min_completed:
        lat, same = timed_round(ops, reference)
        kernel.append(kernel_time())
        correct = correct and same
        raw.append(lat)
    scales = host_scales(kernel)
    latencies = [
        t * scale
        for lat, scale in zip(raw, scales)
        for t, bad in zip(lat, failed)
        if not bad
    ]
    rounds = len(raw)
    busy = sum(sum(lat) * scale for lat, scale in zip(raw, scales))

    calls = count_calls(ops)
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    return {
        "correct": correct,
        "attempted": rounds * len(ops),
        "failed": rounds * sum(failed),
        "metrics": {
            "setup_s": metric(statistics.median(w * k for w, k in zip(walls, setup_scales)), "s"),
            "ops_per_s": metric(len(latencies) / busy, "1/s"),
            "latency_p50_ms": metric(statistics.median(latencies) * 1e3, "ms"),
            "latency_p90_ms": metric(deciles[8] * 1e3, "ms"),
            "calls_per_op": metric(calls / len(ops), "calls"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        },
        "raw": {"round_s": [sum(lat) for lat in raw], "round_scales": scales,
                "setup_walls_s": walls, "setup_scales": setup_scales},
    }


def traced(workload: str, seed: int, seconds: float, starts: int = SETUP_STARTS) -> dict:
    from tracer import SPAN_CAP, Tracer

    _, _, imports = setup_times(workload, seed, starts)
    ops = importlib.import_module(WORKLOADS[workload]).build(seed)
    reference = [safe_call(op) for op in ops]
    failed, correct = judge(ops, reference)

    tracer = Tracer()

    def traced_call(op):
        tracer.op_index += 1
        try:
            return tracer.call(op)
        except Exception as exc:
            return Raised(exc)

    plain = traced_time = 0.0
    rounds = 0
    while plain + traced_time < seconds or rounds < 2:
        lat, same = timed_round(ops, reference)
        plain += sum(lat)
        tracer.record_spans = rounds == 0
        tracer.install()
        try:
            lat, same_traced = timed_round(ops, reference, traced_call)
        finally:
            tracer.uninstall()
        traced_time += sum(lat)
        correct = correct and same and same_traced
        rounds += 1

    n = rounds * len(ops)  # traced operations
    metrics = {}
    for name in TRACED:
        calls, self_ns = tracer.stats.get(name, (0, 0))
        metrics[f"{name}.calls"] = metric(calls / n, "calls/op")
        metrics[f"{name}.self_s"] = metric(self_ns / 1e9 / n, "s/op")
    sqrt_calls = tracer.stats.get("poly.poly_sqrt", (0, 0))[0]
    metrics["poly.poly_sqrt.square_ratio"] = metric(tracer.sqrt_found / sqrt_calls if sqrt_calls else 0.0, "ratio")
    metrics["spectrum.decided_ratio"] = metric(
        tracer.comp_decided / tracer.comp_sufficient if tracer.comp_sufficient else 0.0, "ratio")
    metrics["import.intpoly_s"] = metric(statistics.median(imports), "s")
    metrics["trace.overhead_ratio"] = metric(traced_time / plain, "ratio")

    OUT.mkdir(exist_ok=True)
    dump = {
        "workload": workload, "seed": seed, "ops": len(ops),
        "span_fields": ["id", "parent", "name", "start_ns", "end_ns", "op"],
        "spans": tracer.spans, "truncated": len(tracer.spans) >= SPAN_CAP,
        "layers": {k: {"calls": c, "self_ns": s} for k, (c, s) in sorted(tracer.stats.items())},
    }
    (OUT / f"trace-{workload}-{seed}.json").write_text(json.dumps(dump))
    return {
        "correct": correct,
        "attempted": 2 * n,
        "failed": 2 * rounds * sum(failed),
        "metrics": metrics,
    }


# -- self-test ---------------------------------------------------------------------


def selftest() -> int:
    """Run every workload and the traced run briefly, check that only the
    fixed fault requests fail and that every metric of BENCHMARK.json is
    reported, and feed each checker one altered answer per kind of
    operation: every alteration must be rejected."""
    from exact import Mismatch

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"] for m in spec["end_to_end"]}, 1: {m["name"] for m in spec["per_layer"]}}
    problems = []
    for workload, modname in WORKLOADS.items():
        ops = importlib.import_module(modname).build(1)
        answers = [safe_call(op) for op in ops]
        failed, correct = judge(ops, answers)
        unexpected = {op.kind for op, bad in zip(ops, failed) if bad and not op.kind.startswith("fault.")}
        if not correct or unexpected:
            problems.append(f"{workload}: wrong answers or unexpected failures {sorted(unexpected)}")
        kinds = {}
        for op, answer in zip(ops, answers):
            kinds.setdefault(op.kind, (op, answer))
        for kind, (op, answer) in kinds.items():
            try:
                op.check(op.alter(answer))
                problems.append(f"{workload}/{kind}: altered answer accepted")
            except Mismatch:
                pass
        brief = (end_to_end(workload, 1, 0.5, starts=1, min_completed=10), traced(workload, 1, 0.5, starts=1))
        for trace, result in enumerate(brief):
            if not result["correct"]:
                problems.append(f"{workload}: run with --trace {trace} not correct")
            if set(result["metrics"]) != wanted[trace]:
                problems.append(f"{workload}: --trace {trace} metrics differ from BENCHMARK.json")
        print(f"selftest {workload}: {len(kinds)} kinds of operation checked", file=sys.stderr)
    for line in problems:
        print(f"selftest: {line}", file=sys.stderr)
    print("selftest:", "FAIL" if problems else "ok")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    load_program()
    if args.selftest:
        return selftest()
    if args.workload is None:
        parser.error("--workload is required")
    if args.probe:
        probe(args.workload, args.seed)
        return 0
    run = traced if args.trace else end_to_end
    result = run(args.workload, args.seed, args.seconds)
    OUT.mkdir(exist_ok=True)
    name = f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(result, indent=1))
    result.pop("raw", None)
    for key, m in result["metrics"].items():
        print(f"{args.workload:10s} {key:40s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
