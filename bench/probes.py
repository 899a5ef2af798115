"""Per-layer metrics for the traced run.

Each probe times calls into one public function of one module on fixed
inputs, with a span around every call, and reports the median per call.
``TAGS`` tags every metric with the end-to-end metric and workload it
should move.  Cold costs (interpreter start, imports, the first partition
numbers) are measured in fresh processes.
"""

from __future__ import annotations

import io as stdio
import json
import os
import random
import subprocess
import sys
import time

from harness import CLI_PREFIX, ROOT, cli_env, loglog_slope, median

from hfcalc import abeljacobi, cli, coefficients, engine, io, rings, spaces
from hfcalc.abelian import FgAbelianGroup
from mpmath import mp, mpc, mpf
from oracles import cellular_kahler_doc, cellular_quasi_doc

SUBCOMMANDS = ("compute", "point_table", "check", "aj", "emit_space")
CHECKS = ("splitting", "pbf", "a1", "mv", "grothendieck", "transfer")
LAYERS = ("cli", "io", "spaces", "rings", "coefficients", "engine", "abeljacobi")
PD_SERIES = (50, 100, 200, 400)
QP_SERIES = (2, 4, 6, 8)  # quasi_product(P^k, P^k), top dimension 2k
GRIDS = ((4, 2), (10, 5), (25, 12), (50, 25), (100, 50))  # half-widths of n and p
AJ_DIGITS = (20, 40, 100)
AJ_ARGV = ["aj", "--g2", "4", "--g3", "0", "--divisor", '[[["2", "4.898979485566356196394568149411782783932"], 1], ["inf", -1]]']

# name: (end-to-end metric it should move, workload).  Units and directions
# are in BENCHMARK.json.
TAGS: dict = {"cli.interpreter_ms": ("none (control)", "cli_mix")}
TAGS["cli.import_ms"] = ("op_p50_ms", "cli_mix")
TAGS["cli.import_mpmath_ms"] = ("op_p50_ms", "cli_mix")
for _sub in SUBCOMMANDS:
    TAGS[f"cli.process_ms.{_sub}"] = ("op_p50_ms, op_tail_ms", "cli_mix")
    TAGS[f"cli.run_ms.{_sub}"] = ("op_p50_ms, op_tail_ms", "cli_mix")
TAGS["io.parse_space_ms"] = ("ops_per_s", "model_build")
TAGS["io.emit_space_ms"] = ("ops_per_s", "model_build")
TAGS["io.render_us"] = ("op_p50_ms", "cli_mix")
for _d in PD_SERIES:
    TAGS[f"spaces.projective_space_ms.d{_d}"] = ("ops_per_s, op_tail_ms", "model_build")
TAGS["spaces.projective_space_exponent"] = ("ops_per_s, op_tail_ms", "model_build")
for _name in ("product_ms", "projective_bundle_ms", "as_quasiproj_ms", "make_ms"):
    TAGS[f"spaces.{_name}"] = ("ops_per_s", "model_build")
for _k in QP_SERIES:
    TAGS[f"spaces.quasi_product_ms.top{2 * _k}"] = ("op_tail_ms", "model_build, cell_sweep (a1)")
TAGS["spaces.quasi_product_exponent"] = ("op_tail_ms", "model_build, cell_sweep (a1)")
for _name in ("graded_dimension_ms", "tensor_rings_ms", "bundle_extension_ms"):
    TAGS[f"rings.{_name}"] = ("ops_per_s", "model_build")
TAGS["rings.reduce_us"] = ("op_p50_ms", "cell_sweep")
for _j in (100, 400):
    TAGS[f"coefficients.partition_count_ms.j{_j}"] = ("op_p50_ms, setup_s", "cli_mix, cell_sweep")
for _t in ("MU", "MUQ", "HZ", "custom"):
    TAGS[f"engine.hfc_group_us.{_t}"] = ("ops_per_s, op_tail_ms", "cell_sweep")
TAGS["engine.hfc_group_exponent"] = ("ops_per_s, op_tail_ms", "cell_sweep")
TAGS["engine.point_table_ms"] = ("op_tail_ms", "cell_sweep, cli_mix")
TAGS["engine.point_table.cells"] = ("op_tail_ms", "cell_sweep, cli_mix")
for _hn, _hp in GRIDS[:-1]:
    TAGS[f"engine.point_table_ms.g{2 * _hn + 1}x{2 * _hp + 1}"] = ("op_tail_ms", "cell_sweep, cli_mix")
TAGS["engine.point_table_exponent"] = ("op_tail_ms", "cell_sweep, cli_mix")
for _c in CHECKS:
    TAGS[f"engine.check_ms.{_c}"] = ("op_tail_ms", "cell_sweep")
TAGS["engine.e_rank_us"] = ("op_tail_ms", "cell_sweep")
TAGS["engine.filtered_dim_us"] = ("op_tail_ms", "cell_sweep")
for _d in AJ_DIGITS:
    TAGS[f"abeljacobi.curve_ms.d{_d}"] = ("ops_per_s, op_tail_ms", "aj_precision")
TAGS["abeljacobi.curve_digits_exponent"] = ("ops_per_s, op_tail_ms", "aj_precision")
TAGS["abeljacobi.elliptic_log_ms.generic"] = ("op_p50_ms", "aj_precision")
TAGS["abeljacobi.elliptic_log_ms.half_period"] = ("op_p50_ms", "aj_precision")
TAGS["abeljacobi.aj_ms"] = ("op_p50_ms", "aj_precision")
for _name in ("wp_pair_us", "lattice_invariants_ms", "complex_agm_us", "carlson_rf_us"):
    TAGS[f"abeljacobi.{_name}"] = ("op_p50_ms", "aj_precision")
TAGS["abeljacobi.accuracy_margin_digits"] = ("correctness (no bound)", "aj_precision")
for _layer in LAYERS:
    TAGS[f"{_layer}.failed"] = ("failed_ops_ratio", "all")
TAGS["trace.overhead_pct"] = ("traced minus untraced ops_per_s", "the traced workload")

SCALE = {"ms": 1e3, "us": 1e6}


class Probe:
    def __init__(self, tracer, units):
        self.tr = tracer
        self.units = units
        self.values: dict = {}
        self.calls: dict = {}

    def seconds(self, span, fn, reps, batch=1):
        """Median over ``reps`` of the seconds per call; calls of a few µs
        are timed in batches of ``batch``."""
        times = []
        for _ in range(reps):
            with self.tr.span(span):
                t0 = time.perf_counter()
                for _ in range(batch):
                    fn()
                times.append((time.perf_counter() - t0) / batch)
        return median(times)

    def time(self, metric, span, fn, reps, batch=1):
        self.values[metric] = self.seconds(span, fn, reps, batch) * SCALE[self.units[metric]]
        self.calls[metric] = reps * batch
        return self.values[metric]

    def process(self, metric, span, argv, reps, env_extra=None):
        times = []
        for _ in range(reps):
            with self.tr.span(span) as sp:
                t0 = time.perf_counter()
                proc = subprocess.run(argv, cwd=ROOT, env=cli_env(**(env_extra or {})), capture_output=True, text=True, timeout=120)
                times.append(time.perf_counter() - t0)
                if proc.returncode != 0:
                    sp.fail()
                    raise RuntimeError(f"{argv[1:]} exited {proc.returncode}: {proc.stderr[-300:]}")
        self.values[metric] = median(times) * 1e3
        self.calls[metric] = reps
        return proc


def _import_times(probe):
    """Cumulative import cost of hfcalc.cli and of mpmath, from -X importtime."""
    cli_us, mp_us = [], []
    for _ in range(3):
        with probe.tr.span("cli.importtime"):
            proc = subprocess.run(
                [sys.executable, "-X", "importtime", "-c", "import hfcalc.cli"],
                cwd=ROOT, env=cli_env(), capture_output=True, text=True, timeout=60,
            )
        found = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                found[parts[2].strip()] = int(parts[1])
        cli_us.append(found["hfcalc.cli"])
        mp_us.append(found["mpmath"])
    probe.values["cli.import_ms"] = median(cli_us) / 1e3
    probe.values["cli.import_mpmath_ms"] = median(mp_us) / 1e3
    probe.calls["cli.import_ms"] = probe.calls["cli.import_mpmath_ms"] = 3


COLD_PARTITIONS = (
    "import sys, time\n"
    "from hfcalc.coefficients import partition_count\n"
    "t0 = time.perf_counter()\n"
    "for j in range(int(sys.argv[1]) + 1):\n"
    "    partition_count(j)\n"
    "print(time.perf_counter() - t0)\n"
)


def _cli_probes(probe, tmp_space):
    argvs = {
        "compute": ["compute", "--space", "tests/fixtures/p2.json", "--theory", "MU", "--n", "2", "--p", "1"],
        "point_table": ["point-table", "--theory", "MU", "--n-range", "-4..4", "--p-range", "-2..2"],
        "check": ["check", "pbf", "--space", "tests/fixtures/elliptic.json", "--r", "2", "--theory", "MU", "--n", "2", "--p", "1"],
        "aj": AJ_ARGV,
        "emit_space": ["emit-space", "--space", tmp_space],
    }
    probe.process("cli.interpreter_ms", "cli.interpreter", [sys.executable, "-c", "pass"], 5)
    _import_times(probe)
    os.environ.pop("HFCALC_AJ_PRECISION", None)
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        for sub, argv in argvs.items():
            probe.process(f"cli.process_ms.{sub}", f"cli.process.{sub}", CLI_PREFIX + argv, 5)

            def call(argv=argv):
                if cli.run(argv, out=stdio.StringIO()) != 0:
                    raise RuntimeError(f"hfcalc {argv[0]} failed in process")

            probe.time(f"cli.run_ms.{sub}", f"cli.run.{sub}", call, 5 if sub != "aj" else 3)
    finally:
        os.chdir(cwd)


def _io_spaces_rings_probes(probe, models):
    ktext = json.dumps(cellular_kahler_doc("P100", [100]))
    p100 = models[100]
    probe.time("io.parse_space_ms", "io.parse_space", lambda: io.parse_space_text(ktext), 5)
    probe.time("io.emit_space_ms", "io.emit_space", lambda: io.emit_space(p100), 5)
    desc = engine.hfc_group(spaces.curve(1), coefficients.builtin_theory("HZ"), 2, 1)

    def render():
        io.render_descriptor(desc, True)
        io.descriptor_to_json(desc)

    probe.time("io.render_us", "io.render", render, 5, batch=200)

    for d in PD_SERIES:
        probe.time(f"spaces.projective_space_ms.d{d}", "spaces.projective_space",
                   lambda d=d: spaces.projective_space(d), 5 if d <= 100 else 3)
    probe.values["spaces.projective_space_exponent"] = loglog_slope(
        PD_SERIES, [probe.values[f"spaces.projective_space_ms.d{d}"] for d in PD_SERIES])
    c2, c3, p20 = spaces.curve(2), spaces.curve(3), spaces.projective_space(20)
    probe.time("spaces.product_ms", "spaces.product", lambda: spaces.product(p20, c3), 5)
    base = spaces.product(c2, c3)
    probe.time("spaces.projective_bundle_ms", "spaces.projective_bundle", lambda: spaces.projective_bundle(base, 8), 5)
    p40 = spaces.projective_space(40)
    probe.time("spaces.as_quasiproj_ms", "spaces.as_quasiproj", lambda: spaces.as_quasiproj(p40), 5)
    qdoc = cellular_quasi_doc("P30xP2", [30, 2])
    qtables = {
        key: {tuple(int(x) for x in k.split(",")) if "," in k else int(k): v for k, v in qdoc[key].items()}
        for key in ("betti_rank", "filt_dim", "lattice_in_f", "hodge_class_rank")
    }

    def make():
        spaces.KahlerModel.make(
            name="P100", dim=100, betti={2 * q: FgAbelianGroup(1) for q in range(101)},
            hodge={(q, q): 1 for q in range(101)}, hodge_class_rank={q: 1 for q in range(101)},
            ring=p100.ring,
        )
        spaces.QuasiProjModel.make(
            name="P30xP2", betti=qtables["betti_rank"], filt=qtables["filt_dim"],
            lattice=qtables["lattice_in_f"], hodge_class_rank=qtables["hodge_class_rank"],
        )

    probe.time("spaces.make_ms", "spaces.make", make, 5)
    for k in QP_SERIES:
        q = spaces.as_quasiproj(spaces.projective_space(k))
        probe.time(f"spaces.quasi_product_ms.top{2 * k}", "spaces.quasi_product",
                   lambda q=q: spaces.quasi_product(q, q), 3 if k <= 6 else 2)
    probe.values["spaces.quasi_product_exponent"] = loglog_slope(
        [2 * k for k in QP_SERIES], [probe.values[f"spaces.quasi_product_ms.top{2 * k}"] for k in QP_SERIES])

    ring = p100.ring
    probe.time("rings.graded_dimension_ms", "rings.graded_dimension",
               lambda: [ring.graded_dimension(n) for n in range(201)], 3)
    r50 = models[50].ring
    probe.time("rings.tensor_rings_ms", "rings.tensor_rings", lambda: rings.tensor_rings(r50, r50), 5, batch=20)
    chern = [{(1,): 3}, {(2,): -2}, {(3,): 5}]
    probe.time("rings.bundle_extension_ms", "rings.bundle_extension",
               lambda: rings.bundle_extension(r50, 4, chern), 5, batch=20)
    bundle_ring = rings.bundle_extension(r50, 4, chern)
    element = {(3, 6): 2, (1, 7): -1}
    probe.time("rings.reduce_us", "rings.reduce", lambda: bundle_ring.reduce(element), 5, batch=20)


def _coefficient_probes(probe):
    for j in (100, 400):
        metric = f"coefficients.partition_count_ms.j{j}"
        times = []
        for _ in range(3):
            with probe.tr.span("coefficients.partition_count"):
                proc = subprocess.run([sys.executable, "-c", COLD_PARTITIONS, str(j)], cwd=ROOT, env=cli_env(),
                                      capture_output=True, text=True, timeout=120)
            times.append(float(proc.stdout.strip()))
        probe.values[metric] = median(times) * 1e3
        probe.calls[metric] = 3


def _engine_probes(probe, models):
    th = {name: coefficients.builtin_theory(name) for name in ("MU", "MUQ", "HZ")}
    th["custom"] = coefficients.custom_theory({-1: 1, 0: 1, 1: 2, 2: 1})
    p100 = models[100]
    for name, theory in th.items():
        engine.hfc_group(p100, theory, 40, 20)
        probe.time(f"engine.hfc_group_us.{name}", "engine.hfc_group",
                   lambda theory=theory: engine.hfc_group(p100, theory, 40, 20), 5, batch=10)
    # One MU cell at (0, 0) against d, partition numbers already warm.
    mu_times = []
    for d in PD_SERIES:
        engine.hfc_group(models[d], th["MU"], 0, 0)
        mu_times.append(probe.seconds("engine.hfc_group", lambda d=d: engine.hfc_group(models[d], th["MU"], 0, 0), 3))
    probe.values["engine.hfc_group_exponent"] = loglog_slope(PD_SERIES, mu_times)
    cells, grid_ms = [], []
    for hn, hp in GRIDS:
        name = f"engine.point_table_ms.g{2 * hn + 1}x{2 * hp + 1}"
        if name not in TAGS:
            name = "engine.point_table_ms"
        reps = 5 if hn <= 25 else 3
        grid_ms.append(probe.time(name, "engine.point_table", lambda hn=hn, hp=hp: engine.point_table(th["MU"], (-hn, hn), (-hp, hp)), reps))
        cells.append((2 * hn + 1) * (2 * hp + 1))
    probe.values["engine.point_table.cells"] = cells[-1]
    probe.values["engine.point_table_exponent"] = loglog_slope(cells, grid_ms)

    curves = spaces.product(spaces.curve(2), spaces.curve(3))
    qprod = spaces.quasi_product(spaces.as_quasiproj(spaces.projective_space(4)), spaces.as_quasiproj(spaces.projective_space(4)))
    p12 = spaces.projective_space(12)
    mv = (spaces.projective_space(1), spaces.affine_space(1), spaces.affine_space(1), spaces.gm())
    chern = [{(1,): 3}, {(2,): -2}]
    checks = {
        "splitting": lambda: engine.rational_splitting_check(p12, 0, 0),
        "pbf": lambda: engine.pbf_check(curves, 4, 2, 1, th["MU"]),
        "a1": lambda: engine.a1_invariance_check(qprod, th["MU"], 4, 2),
        "mv": lambda: engine.mv_consistency(*mv, th["HZ"], 1),
        "grothendieck": lambda: engine.grothendieck_check(models[50], 3, chern),
        "transfer": lambda: engine.transfer_normalization_check(p100, {(1,): 2}),
    }
    for name, call in checks.items():
        def checked(call=call, name=name):
            result = call()
            if not (result if isinstance(result, bool) else result[0]):
                raise RuntimeError(f"check {name} failed its law on a fixed input")

        probe.time(f"engine.check_ms.{name}", f"engine.check.{name}", checked, 5 if name != "a1" else 3)
    probe.time("engine.e_rank_us", "engine.e_rank", lambda: engine.e_rank(p100, th["MU"], 0), 5, batch=10)
    probe.time("engine.filtered_dim_us", "engine.filtered_dim", lambda: engine.filtered_dim(p100, th["MU"], 0, 0), 5, batch=10)


def _aj_probes(probe, seed):
    curve_ms = []
    for d in AJ_DIGITS:
        abeljacobi.EllipticCurve(4, 0, d)
        curve_ms.append(probe.time(f"abeljacobi.curve_ms.d{d}", "abeljacobi.EllipticCurve",
                                   lambda d=d: abeljacobi.EllipticCurve(4, 0, d), 3))
    probe.values["abeljacobi.curve_digits_exponent"] = loglog_slope(AJ_DIGITS, curve_ms)
    e = abeljacobi.EllipticCurve(4, 0, 40)
    with mp.workdps(e._workdps):
        x = mpf("2.5")
        P = (x, mp.sqrt(4 * x ** 3 - 4 * x))
        x = mpf("3.75")
        Q = (x, -mp.sqrt(4 * x ** 3 - 4 * x))
        T = (mpf(1), mpf(0))
        z = mpc("0.3", "0.2") * e.w1 + mpf("0.45") * e.w2
        w1, w2 = e.w1, e.w2
        roots = e.roots
    divisor = abeljacobi.Divisor.of([(P, 1), (Q, 1), (None, -2)])
    probe.time("abeljacobi.elliptic_log_ms.generic", "abeljacobi.elliptic_log", lambda: e.elliptic_log(P), 5)
    probe.time("abeljacobi.elliptic_log_ms.half_period", "abeljacobi.elliptic_log", lambda: e.elliptic_log(T), 5)
    probe.time("abeljacobi.aj_ms", "abeljacobi.aj", lambda: e.aj(divisor), 5)
    probe.time("abeljacobi.wp_pair_us", "abeljacobi.wp_pair", lambda: e.wp_pair(z), 5, batch=10)
    with mp.workdps(e._workdps):
        probe.time("abeljacobi.lattice_invariants_ms", "abeljacobi.lattice_invariants",
                   lambda: abeljacobi.lattice_invariants(w1, w2), 5)
        a, b = mp.sqrt(roots[0] - roots[2]), mp.sqrt(roots[0] - roots[1])
        probe.time("abeljacobi.complex_agm_us", "abeljacobi.complex_agm", lambda: abeljacobi.complex_agm(a, b), 5, batch=10)
        args = (P[0] - roots[0], P[0] - roots[1], P[0] - roots[2])
        probe.time("abeljacobi.carlson_rf_us", "abeljacobi.carlson_rf", lambda: abeljacobi.carlson_rf(*args), 5, batch=10)
    # Accuracy: the round trip aj([point_at(z)] - [O]) = z mod L on seeded
    # points of a real and a complex curve at every precision.
    rng = random.Random(seed)
    margins = []
    for d in AJ_DIGITS:
        for g2, g3 in ((mpc(-3), mpc(1)), (mpc(1.5, 0.3), mpc(-2, 1))):
            with probe.tr.span("abeljacobi.EllipticCurve"):
                c = abeljacobi.EllipticCurve(g2, g3, d)
            with mp.workdps(c._workdps):
                z0 = mpf(rng.uniform(0.05, 0.95)) * c.w1 + mpf(rng.uniform(0.05, 0.95)) * c.w2
                with probe.tr.span("abeljacobi.aj"):
                    z1 = c.aj(abeljacobi.Divisor.of([(c.point_at(z0), 1), (None, -1)]))
                dist = c.lattice_distance(z1 - z0)
                achieved = c._workdps if dist == 0 else float(-mp.log10(dist / abs(c.w1)))
            margins.append(min(achieved, c._workdps) - d)
    probe.values["abeljacobi.accuracy_margin_digits"] = min(margins)
    probe.calls["abeljacobi.accuracy_margin_digits"] = len(margins)


def run_all(tracer, seed: int, tmpdir, units: dict) -> tuple[dict, dict]:
    """All per-layer probes; returns (values, call counts) by metric name.
    ``units`` maps each metric to its unit in BENCHMARK.json."""
    tracer.enabled = True
    tracer.op_id = -1
    probe = Probe(tracer, units)
    try:
        models = {d: spaces.projective_space(d) for d in PD_SERIES}
        space_file = tmpdir / "probe_p40.json"
        space_file.write_text('{"kind": "construct", "expr": ["projective_space", 40]}', encoding="utf-8")
        _cli_probes(probe, str(space_file))
        _io_spaces_rings_probes(probe, models)
        _coefficient_probes(probe)
        _engine_probes(probe, models)
        _aj_probes(probe, seed)
    finally:
        tracer.enabled = False
    return probe.values, probe.calls
