"""hfcalc benchmark: seeded, closed-loop, single-client workloads.

    python3 bench/run.py --workload cli_mix --seed 1 --seconds 20 --trace 0

Workloads (see BENCHMARK.json and bench/README.md): cli_mix, model_build,
cell_sweep, aj_precision, or ``all``.  Run from the root of a checkout; the
program is imported from ``src``.  Every op is checked against a reference
outside the timed interval.

With ``--trace 0`` the last line of output is a JSON object whose metrics
are the end-to-end metrics: setup_s (median of several fresh set-ups),
ops_per_s, op_p50_ms, op_tail_ms and peak_rss_mb.  With ``--trace 1`` every
second op of the loop is traced, the per-layer probes run, and the metrics
are the per-layer metrics.  A full record, and for traced runs the spans,
are written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from harness import CORES, LOOP, OUT, ROOT, pin_quietest_core, reference_ms, spec

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("cli_mix", "model_build", "cell_sweep", "aj_precision")
SETUP_SAMPLES = 5  # fresh processes whose set-up time gives setup_s
DEADLINE_S = 170  # one run must end within 180 s

# Baselines recorded in ROADMAP.md item 1 and 2 (ms), printed for reference.
ROADMAP = [
    ("hfcalc compute on P2, end to end", 195, "cli.process_ms.compute"),
    ("bare python -c pass", 118, "cli.interpreter_ms"),
    ("import hfcalc.cli, cumulative", 68, "cli.import_ms"),
    ("mpmath import", 21, "cli.import_mpmath_ms"),
    ("hfcalc aj, end to end", 230, "cli.process_ms.aj"),
    ("point table 201 x 101", 226, "engine.point_table_ms"),
    ("EllipticCurve(4, 0) at 20 digits", 20, "abeljacobi.curve_ms.d20"),
    ("EllipticCurve(4, 0) at 40 digits", 23, "abeljacobi.curve_ms.d40"),
    ("EllipticCurve(4, 0) at 100 digits", 65, "abeljacobi.curve_ms.d100"),
    ("one elliptic_log", 7, "abeljacobi.elliptic_log_ms.generic"),
    ("P400 build", 229, "spaces.projective_space_ms.d400"),
    ("quasi_product(P8, P8)", 1060, "spaces.quasi_product_ms.top16"),
    ("partition_count j = 0..400, cold", 633, "coefficients.partition_count_ms.j400"),
]
SERIES = [
    ("P^d build, d = 50..400", "spaces.projective_space_ms.d", "spaces.projective_space_exponent"),
    ("quasi_product(P^k, P^k), top = 4..16", "spaces.quasi_product_ms.top", "spaces.quasi_product_exponent"),
    ("point_table grids 9x5..201x101", "engine.point_table_ms", "engine.point_table_exponent"),
    ("EllipticCurve(4, 0), 20/40/100 digits", "abeljacobi.curve_ms.d", "abeljacobi.curve_digits_exponent"),
]


class BenchError(Exception):
    pass


def _worker(workload, seed, seconds, trace, setup_only, deadline):
    argv = [sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        argv.append("--setup-only")
    t0 = time.monotonic()
    # A process group of its own, so a worker past the deadline is stopped together
    # with the hfcalc process it may be waiting for.
    proc = subprocess.Popen(argv + ["--t0", repr(t0)], cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{workload}: worker ran past the {DEADLINE_S} s deadline")
    if proc.returncode != 0 or not stdout.strip():
        raise BenchError(f"{workload}: worker exited {proc.returncode}\n{stderr[-3000:]}")
    return json.loads(stdout.strip().splitlines()[-1])


def _setup_sample(workload, seed, seconds, deadline):
    """Set-up time of a fresh worker started on the quietest core, as
    measured and at the speed of the loop reference (``harness.LOOP``), read
    three times just before and three times just after it."""
    pin_quietest_core()
    try:
        readings = [reference_ms() for _ in range(3)]
        setup_s = _worker(workload, seed, seconds, 0, True, deadline)["setup_s"]
        readings += [reference_ms() for _ in range(3)]
        return setup_s, setup_s * LOOP.full_speed_ms / statistics.median(readings)
    finally:
        os.sched_setaffinity(0, CORES)


def run_workload(workload, seed, seconds, trace, deadline):
    """The worker's result and the set-up samples at the reference speed."""
    if trace:
        return _worker(workload, seed, seconds, 1, False, deadline), []
    samples = [_setup_sample(workload, seed, seconds, deadline) for _ in range(SETUP_SAMPLES)]
    result = _worker(workload, seed, seconds, 0, False, deadline)
    result["setup_s_measured"] = [measured for measured, _scaled in samples]
    return result, [scaled for _measured, scaled in samples]


def _metrics(bench, result, samples, trace):
    if trace:
        values = result["per_layer"]
        wanted = bench["per_layer"]
    else:
        values = {key: result[key] for key in ("ops_per_s", "op_p50_ms", "op_tail_ms", "peak_rss_mb")}
        values["setup_s"] = statistics.median(samples)
        wanted = bench["end_to_end"]
    names = [m["name"] for m in wanted]
    if set(names) != set(values):
        raise BenchError(f"metrics {sorted(set(names) ^ set(values))} disagree with BENCHMARK.json")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}


def report(workload, seed, result, samples, metrics, trace):
    lines = [f"== {workload}  seed {seed}  {'traced' if trace else 'untraced'}"]
    env = result["env"]
    lines.append(
        f"env: {env['cpu_model']}, nproc {env['nproc']}, Python {env['python']}, mpmath {env['mpmath']} "
        f"(backend {env['mpmath_backend']}), commit {env['git_commit']}"
    )
    lines.append(f"cli invocation: {env['cli_invocation']}")
    lines.append(f"load average before {result['load_before']}, after {result['load_after']}")
    attempted = result["attempted"]
    known = result["known_defects"]
    failed_all = result["failed"] + sum(known.values())
    lines.append(
        f"ops: {attempted} attempted, {result['failed']} failed unexpectedly, {sum(known.values())} known defects "
        f"{known or ''}; failed_ops_ratio {failed_all}/{attempted} = {failed_all / attempted:.4f}"
    )
    for kind, detail in result["failures"]:
        lines.append(f"  FAILED {kind}: {detail}")
    lines.append(
        f"n_ops {result['n_ops']} untraced over a pool of {result['pool']} ({result['n_ops'] / result['pool']:.1f} passes); "
        f"op_tail_ms is p{result['tail_pct']:g}; peak RSS of {result['peak_rss_of']}"
    )
    ref, measured = result["reference_ms"], result["measured"]
    lines.append(
        f"reference {ref['fastest']:.4f} ms fastest, {ref['median']:.4f} ms median over {ref['n']} readings "
        f"(full speed {result['reference_ms']['full_speed']} ms); as measured: ops_per_s {measured['ops_per_s']:.4g}, "
        f"op_p50_ms {measured['op_p50_ms']:.4g}, op_tail_ms {measured['op_tail_ms']:.4g}, "
        f"raw rate over every run {result['raw_ops_per_s']:.4g} ops/s; "
        f"rate from each op's first run {result['first_run_ops_per_s']:.4g} ops/s"
    )
    if "accuracy_margin_digits" in result:
        lines.append(f"accuracy_margin_digits {result['accuracy_margin_digits']:.3f} (min over ops)")
    if samples:
        spread = (max(samples) - min(samples)) / statistics.median(samples)
        flag = "  NOISY (> 10%)" if spread > 0.10 else ""
        lines.append(f"setup samples {[round(s, 4) for s in samples]}, spread {spread:.1%}{flag}; "
                     f"as measured {[round(s, 4) for s in result['setup_s_measured']]}")
    lines.append("per kind (untraced): " + ", ".join(
        f"{k} n={v['n']} p50={v['median_ms']:.2f}ms" for k, v in result["per_kind"].items()))
    if trace:
        lines += _trace_report(result, metrics)
    else:
        for name, m in metrics.items():
            lines.append(f"  {name:<14} {m['value']:.6g} {m['unit']}")
    return "\n".join(lines)


def _trace_report(result, metrics):
    lines = [
        f"tracing: untraced {result['raw_ops_per_s']:.4g} ops/s, traced {result['traced_ops_per_s']:.4g} ops/s, "
        f"overhead at a common mix {result['trace_overhead_pct']:.2f}%",
        f"spans: {result['n_spans']} written to {result['spans_file']}",
        "self time per layer in the timed loop (traced ops):",
    ]
    total = sum(row["self_s"] for row in result["loop_layers"].values()) or 1.0
    for layer, row in sorted(result["loop_layers"].items(), key=lambda kv: -kv[1]["self_s"]):
        lines.append(f"  {layer:<12} {row['self_s']:9.4f} s  {row['self_s'] / total:6.1%}  calls {row['calls']}  failed {row['failed']}")
    lines.append("per-layer metrics (value, unit, calls; moves -> on workload):")
    calls, tags = result["per_layer_calls"], result["tags"]
    for name, m in metrics.items():
        moves, on = tags[name]
        lines.append(f"  {name:<40} {m['value']:12.6g} {m['unit']:<8} n={calls.get(name, '-')!s:<5} {moves} -> {on}")
    lines.append("scaling series (fitted exponent, time ~ size^k):")
    for label, prefix, exponent in SERIES:
        points = ", ".join(f"{n[len(prefix):].lstrip('.') or 'g201x101'}={m['value']:.4g}" for n, m in metrics.items()
                           if n.startswith(prefix) and n != exponent and not n.endswith(".cells"))
        lines.append(f"  {label}: {points}; k = {metrics[exponent]['value']:.3f}")
    lines.append("ROADMAP baseline (a record, not a gate):")
    for label, base, name in ROADMAP:
        lines.append(f"  {label:<38} roadmap {base:>6} ms   measured {metrics[name]['value']:9.2f} ms  ({name})")
    return lines


def main(argv=None) -> int:
    bench = spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "hfcalc" / "__init__.py").is_file():
        print(f"no hfcalc sources under {ROOT / 'src'}: run from the root of a checkout", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + DEADLINE_S * len(names)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for workload in names:
            result, samples = run_workload(workload, args.seed, args.seconds, args.trace, deadline)
            metrics = _metrics(bench, result, samples, args.trace)
            print(report(workload, args.seed, result, samples, metrics, args.trace), flush=True)
            record = {"workload": workload, "seed": args.seed, "trace": args.trace, "setup_samples": samples,
                      "result": result, "metrics": metrics}
            (OUT / f"{workload}_s{args.seed}_t{args.trace}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
            combined["correct"] &= result["failed"] == 0
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            prefix = f"{workload}." if args.workload == "all" else ""
            combined["metrics"].update({prefix + k: v for k, v in metrics.items()})
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
