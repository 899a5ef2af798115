"""One workload process: set up, run the timed loop, print a JSON summary.

Started by ``run.py`` with the monotonic clock reading taken just before
the process was spawned (``--t0``), so ``setup_s`` runs from process start
to the first timed op.  With ``--setup-only`` it stops there.
"""

from __future__ import annotations

import argparse
import importlib
import itertools
import json
import os
import resource
import shutil
import statistics
import sys
import time

from harness import LOOP, OUT, SRC, HostSpeed, Tracer, environment, median, nearest_rank, spec, timed_loop

sys.path.insert(0, str(SRC))

WORKLOADS = {
    "cli_mix": "wl_cli_mix",
    "model_build": "wl_model_build",
    "cell_sweep": "wl_cell_sweep",
    "aj_precision": "wl_aj_precision",
}

def _runs(records, traced: bool, field: int = 2) -> dict:
    """Per distinct op of the pool: (kind, [ms of each run, in order]) over
    the runs that were traced, or untraced, as asked.  ``field`` 2 gives
    times at the reference speed, 5 times as measured."""
    runs: dict = {}
    for rec in records:
        if rec[4] == traced:
            runs.setdefault(rec[0], (rec[1], []))[1].append(rec[field] * 1e3)
    return runs


def _per_op(records, traced: bool, combine, field: int = 2) -> dict:
    """Per distinct op: (kind, ``combine`` of the ms of its runs)."""
    return {i: (kind, combine(ms)) for i, (kind, ms) in _runs(records, traced, field).items()}


def _figures(times: dict, weights: dict, copies: list, tail_pct: float) -> dict:
    """ops_per_s, op_p50_ms and op_tail_ms from one time per distinct op.

    ops_per_s is the throughput at the workload's stated mix: the ops of a
    round over the time a round takes at each kind's mean op time.  The
    percentiles count each op as often as it stands in the pool."""
    per_kind: dict = {}
    for kind, ms in times.values():
        per_kind.setdefault(kind, []).append(ms)
    round_ms = sum(weights[kind] * statistics.fmean(ms) for kind, ms in per_kind.items())
    ordered = sorted(ms for i, (_kind, ms) in times.items() for _ in range(copies[i]))
    return {
        "ops_per_s": 1e3 * sum(weights[kind] for kind in per_kind) / round_ms,
        "op_p50_ms": median(ordered),
        "op_tail_ms": nearest_rank(ordered, tail_pct),
    }


def summarize(records, tail_pct: float, weights: dict, copies: list, per_op) -> dict:
    """End-to-end figures, failures, and for a traced run the tracing overhead.

    The timing figures are taken over the pool: each distinct op counts
    once, at ``per_op`` of its untraced runs at the reference speed
    (``harness.HostSpeed``).  ``copies[i]`` is how often distinct op i
    stands in the pool."""
    best = _per_op(records, False, per_op)
    failures = [(rec[1], rec[3][1]) for rec in records if rec[3] is not None and rec[3][0] == "fail"]
    known: dict = {}
    for rec in records:
        if rec[3] is not None and rec[3][0] == "known":
            known[rec[3][1]] = known.get(rec[3][1], 0) + 1
    untraced = [rec[5] for rec in records if not rec[4]]
    first = {i: (kind, ms[0]) for i, (kind, ms) in _runs(records, False).items()}
    per_kind: dict = {}
    for kind, ms in best.values():
        per_kind.setdefault(kind, []).append(ms)
    out = {
        "attempted": len(records),
        "failed": len(failures),
        "known_defects": known,
        "failures": failures[:5],
        "n_ops": len(untraced),
        "pool": sum(copies[i] for i in best),
        **_figures(best, weights, copies, tail_pct),
        "tail_pct": tail_pct,
        "first_run_ops_per_s": _figures(first, weights, copies, tail_pct)["ops_per_s"],
        "measured": _figures(_per_op(records, False, min, field=5), weights, copies, tail_pct),
        "raw_ops_per_s": len(untraced) / sum(untraced),
        "per_kind": {k: {"n": len(v), "median_ms": median(v)} for k, v in sorted(per_kind.items())},
    }
    if any(rec[4] for rec in records):
        traced = [rec[5] for rec in records if rec[4]]
        out["traced_ops_per_s"] = len(traced) / sum(traced)
        # Overhead over the ops that ran both ways, traced runs against untraced.
        with_trace = _per_op(records, True, per_op)
        both = [i for i in with_trace if i in best]
        if both:
            extra = sum(with_trace[i][1] - best[i][1] for i in both)
            out["trace_overhead_pct"] = 100.0 * extra / sum(best[i][1] for i in both)
        else:  # a run too short for a second pass
            raw = out["raw_ops_per_s"]
            out["trace_overhead_pct"] = 100.0 * (raw - out["traced_ops_per_s"]) / raw
    return out


def _traced_figures(tracer, result, args, tmpdir) -> dict:
    """Per-layer metrics, self time per layer and the spans file."""
    import probes

    units = {m["name"]: m["unit"] for m in spec()["per_layer"]}
    values, calls = probes.run_all(tracer, args.seed, tmpdir, units)
    layer = lambda name: name.split(".")[0]
    by_layer = tracer.summary(layer)
    for name in probes.LAYERS:
        values[f"{name}.failed"] = by_layer.get(name, {"failed": 0})["failed"]
    values["trace.overhead_pct"] = result["trace_overhead_pct"]
    # Self time of the timed loop's spans; "op" spans hold the benchmark's own share.
    loop = tracer.summary(layer, keep=lambda rec: rec[4] >= 0)
    self_time = {("benchmark" if name == "op" else name): row for name, row in loop.items()}
    spans_path = OUT / f"spans_{args.workload}_s{args.seed}.jsonl"
    with open(spans_path, "w", encoding="utf-8") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    return {
        "per_layer": values,
        "per_layer_calls": calls,
        "loop_layers": self_time,
        "spans_file": str(spans_path.relative_to(OUT.parent)),
        "n_spans": len(tracer.spans),
        "tags": probes.TAGS,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    module = importlib.import_module(WORKLOADS[args.workload])
    tmpdir = OUT / f"tmp-{os.getpid()}"
    tmpdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = module.Workload(args.seed, tmpdir)
        pool = list(itertools.islice(workload.ops(), module.POOL))
        setup_s = time.monotonic() - args.t0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        load_before = os.getloadavg()
        tracer = Tracer()
        reference = getattr(module, "REFERENCE", LOOP)
        speed = HostSpeed(reference)
        records = timed_loop(pool, args.seconds, tracer, alternate=bool(args.trace), speed=speed)
        distinct = list({id(op): op for op in pool}.values())
        copies = [sum(other is op for other in pool) for op in distinct]
        result = summarize(records, module.TAIL_PCT, module.WEIGHTS, copies, reference.per_op)
        result["setup_s"] = setup_s
        if hasattr(workload, "peak_rss_mb"):  # a workload whose ops are hfcalc processes
            result["peak_rss_mb"] = workload.peak_rss_mb()
            result["peak_rss_of"] = "the largest hfcalc process"
        else:
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            result["peak_rss_of"] = "the workload process"
        result.update(getattr(workload, "extra_figures", lambda: {})())
        if args.trace:
            result.update(_traced_figures(tracer, result, args, tmpdir))
        result["reference_ms"] = {"fastest": min(speed.readings), "median": median(speed.readings),
                                  "n": len(speed.readings), "full_speed": speed.reference.full_speed_ms}
        result["env"] = environment()
        result["load_before"] = load_before
        result["load_after"] = os.getloadavg()
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
