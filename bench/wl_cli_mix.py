"""cli_mix: one hfcalc process at a time over a seeded mix of subcommands.

Per round of 19 ops: 3 each of golden commands, ``compute`` (table and
json), small ``point-table`` grids, ``check`` (all six kinds in turn),
``emit-space`` and ``aj`` at the default 40 digits, and 1 op from the error
slice (a malformed document, flag or HFCALC_AJ_PRECISION value).  Spaces
are the test fixtures and constructor documents written in set-up.

Checks: goldens byte for byte; compute cells against the projective
bundle formula, A^1-invariance or analytic = log, evaluated in this
process; grids against the closed-form point table; checker verdicts
against their law; emitted tables against the Poincare polynomial; aj
values by the round trip and lattice_invariants.  Error ops must exit
1 or 2 with no traceback.  Two inputs still end in a traceback and are
reported as known defects by name.
"""

from __future__ import annotations

import json
import random
import re
import statistics
import subprocess
import sys
import time

from harness import CLI_PREFIX, ROOT, Op, Reference, cli_env, schedule
from mpmath import mp, mpc, mpf
from oracles import (
    agree,
    as_tuple,
    cell_counts,
    cellular_cell,
    json_tuple,
    parse_ascii_group,
    point_cell,
    rank_function,
    shifted,
    shown,
    tree_betti,
)

from hfcalc import io, spaces
from hfcalc.abeljacobi import EllipticCurve, lattice_invariants
from hfcalc.coefficients import builtin_theory, custom_theory
from hfcalc.engine import hfc_group

TAIL_PCT = 90.0
TIMEOUT_S = 60

FIXTURES = "tests/fixtures"
GOLDEN = ROOT / "tests" / "golden"
GOLDEN_COMMANDS = {
    "point_table_mu.txt": ["point-table", "--theory", "MU", "--n-range", "-4..4", "--p-range", "-2..2", "--ascii"],
    "compute_p2_hz_2_1.json": [
        "compute", "--space", f"{FIXTURES}/p2.json", "--theory", "HZ", "--n", "2", "--p", "1", "--format", "json",
    ],
    "compute_elliptic_hz_2_1.txt": [
        "compute", "--space", f"{FIXTURES}/elliptic.json", "--theory", "HZ", "--n", "2", "--p", "1", "--ascii",
    ],
    "compute_p1_mu_0_0.json": [
        "compute", "--space", f"{FIXTURES}/p1.json", "--theory", "MU", "--n", "0", "--p", "0", "--format", "json",
    ],
}
KU2 = f"{FIXTURES}/ku2.json"
THEORY_ARGS = ("MU", "HZ", "HQ", "MUQ", KU2)

# Shares are assumed, not measured: the repository holds no usage record.
# Every kind has the same share, and the error slice about one op in twenty.
WEIGHTS = {"golden": 3, "compute": 3, "point_table": 3, "check": 3, "emit_space": 3, "aj": 3, "error": 1}
# The pool is one round: one op of each kind, run as often as its share
# says.  The error op runs the next case of ERRORS each time.
POOL = sum(WEIGHTS.values())
CHECK_KINDS = ("splitting", "pbf", "a1", "mv", "grothendieck", "transfer")

# Generated constructor documents: (file stem, expression, reference rule).
# "cellular" = sums of point cells; "bundle" = projective bundle formula over
# a base; "anlog" = analytic = log in ranks.
SPACES = [
    ("p3", ["projective_space", 3], ("cellular", [3])),
    ("p17", ["projective_space", 17], ("cellular", [17])),
    ("p40", ["projective_space", 40], ("cellular", [40])),
    ("p5xp3", ["product", ["projective_space", 5], ["projective_space", 3]], ("cellular", [5, 3])),
    ("p6xc2", ["product", ["projective_space", 6], ["curve", 2]], ("bundle", ["curve", 2], 7)),
    ("bc3", ["projective_bundle", ["curve", 3], 4], ("bundle", ["curve", 3], 4)),
    ("c1xc2", ["product", ["curve", 1], ["curve", 2]], ("anlog", None)),
    ("bgm", ["projective_bundle", ["gm"], 5], ("bundle", ["gm"], 5)),
    ("a3", ["affine_space", 3], ("cellular", [])),
]
QUASI = {"bgm", "a3"}
RING = {"p3", "p17", "p40"}

# Error slice: (name, argv, extra environment, known defect name or None).
# The two known defects end in a ValueError traceback instead of a clean
# exit: an integer field that is not a number in a constructor document,
# and a non-numeric HFCALC_AJ_PRECISION.  An op counts as one of them only
# with exactly that symptom: exit 1 and a traceback ending in KNOWN_SYMPTOM.
KNOWN_SYMPTOM = "ValueError: invalid literal for int() with base 10: 'abc'"
AJ_ARGS = ["aj", "--g2", "4", "--g3", "0", "--divisor", '[["inf", 0]]']
ERRORS = [
    ("bad_json", ["compute", "--space", "{bad_json}", "--theory", "HZ", "--n", "0", "--p", "0"], {}, None),
    ("unknown_constructor", ["compute", "--space", "{torus}", "--theory", "HZ", "--n", "0", "--p", "0"], {}, None),
    ("non_integer_flag", ["compute", "--space", f"{FIXTURES}/p2.json", "--theory", "HZ", "--n", "x", "--p", "1"], {}, None),
    ("unknown_subcommand", ["bogus"], {}, None),
    ("empty_range", ["point-table", "--theory", "MU", "--n-range", "5..1", "--p-range", "0..0"], {}, None),
    ("unknown_theory", ["compute", "--space", f"{FIXTURES}/p2.json", "--theory", "XYZ", "--n", "0", "--p", "0"], {}, None),
    ("singular_curve", ["aj", "--g2", "0", "--g3", "0", "--divisor", '[["inf", 0]]'], {}, None),
    ("torsion_with_mu", ["compute", "--space", "{torsion}", "--theory", "MU", "--n", "0", "--p", "0"], {}, None),
    ("projective_space_abc", ["compute", "--space", "{pabc}", "--theory", "HZ", "--n", "0", "--p", "0"], {}, "projective_space_abc"),
    ("aj_precision_abc", AJ_ARGS, {"HFCALC_AJ_PRECISION": "abc"}, "aj_precision_env_abc"),
]

# A curve-like model with 2-torsion in H^1: bordism queries must refuse it.
TORSION_DOC = {
    "kind": "kahler", "name": "torsion", "complex_dim": 1,
    "betti": {"0": [1, []], "1": [0, [2]], "2": [1, []]},
    "hodge": {"0,0": 1, "1,1": 1}, "hodge_class_rank": {"0": 1, "1": 1},
}
ERROR_DOCS = ("bad_json", "torus", "pabc", "torsion")

AJ_CURVES = [(4, 0), (-3, 1), (mpc(1.5, 0.3), mpc(-2, 1)), (mpc(-0.25, 2), mpc(0.5, -0.125))]


def _theory(arg):
    if arg == KU2:
        return custom_theory({0: 1, 1: 1}, name="KU-trunc"), {0: 1, 1: 1}
    return builtin_theory(arg), arg


def _cli(argv, env_extra=None):
    """Run one hfcalc process; the timed part of every op."""
    return subprocess.run(
        CLI_PREFIX + argv, cwd=ROOT, env=cli_env(**(env_extra or {})),
        capture_output=True, text=True, timeout=TIMEOUT_S,
    )


# Runs hfcalc.cli like ``python -m hfcalc.cli`` and, at exit, writes the
# process's own peak resident set (VmHWM) to stderr.  The ru_maxrss the
# parent gets for a child cannot stand in for it: Linux counts in it the
# resident set of the spawning process at the time of exec.
RSS_PROBE = """
import atexit, runpy, sys
def _hwm():
    with open("/proc/self/status") as fh:
        kb = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
    sys.__stderr__.write("\\nVmHWM " + kb + "\\n")
atexit.register(_hwm)
runpy.run_module("hfcalc.cli", run_name="__main__", alter_sys=True)
"""


def _peak_rss_kb(argv, env_extra=None) -> int:
    proc = subprocess.run(
        [sys.executable, "-c", RSS_PROBE] + argv, cwd=ROOT, env=cli_env(**(env_extra or {})),
        capture_output=True, text=True, timeout=TIMEOUT_S,
    )
    return int(proc.stderr.rsplit("VmHWM ", 1)[1].split()[0])


def _interpreter_ms() -> float:
    """One reading of the process reference: a Python process that imports
    mpmath, started the way hfcalc processes are, in ms."""
    t0 = time.perf_counter()
    subprocess.run(CLI_PREFIX[:1] + ["-c", "import mpmath"], cwd=ROOT, env=cli_env(), capture_output=True, check=True)
    return (time.perf_counter() - t0) * 1e3


# An hfcalc process is mostly process start and imports, and slows with the
# host unlike a loop inside one process: its reference is a process too.
# Its readings are sparse, so the scale is noisy, and an op's fastest run
# would pick out that noise: an op's time is the median of its runs.
REFERENCE = Reference(_interpreter_ms, full_speed_ms=82.0, every_s=0.5, window_s=1.5, per_op=statistics.median)


def _clean_exit(proc):
    if proc.returncode != 0:
        return f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}"
    if "Traceback" in proc.stderr:
        return "traceback on stderr"
    return None


class Workload:
    def __init__(self, seed: int, tmpdir):
        self.rng = random.Random(seed)
        self.tmp = tmpdir
        self.docs = {}
        for stem, expr, ref in SPACES:
            path = tmpdir / f"{stem}.json"
            path.write_text(json.dumps({"kind": "construct", "expr": expr}), encoding="utf-8")
            self.docs[stem] = (str(path), expr, ref)
        for stem, text in (
            ("bad_json", "{not json"),
            ("torus", '{"kind": "construct", "expr": ["torus", 2]}'),
            ("pabc", '{"kind": "construct", "expr": ["projective_space", "abc"]}'),
            ("torsion", json.dumps(TORSION_DOC)),
        ):
            (tmpdir / f"{stem}.json").write_text(text, encoding="utf-8")
        self.golden = {name: (GOLDEN / name).read_text(encoding="utf-8") for name in GOLDEN_COMMANDS}
        self.aj_inputs = [self._aj_input(g2, g3) for g2, g3 in AJ_CURVES]
        self.check_i = self.error_i = self.golden_i = self.aj_i = 0
        self.commands = []  # (argv, extra environment) of each op made
        self.error_order = list(range(len(ERRORS)))
        self.rng.shuffle(self.error_order)
        # Warm-up: one process of each subcommand fills the page cache.
        for argv in (GOLDEN_COMMANDS["point_table_mu.txt"], ["emit-space", "--space", f"{FIXTURES}/p2.json"]):
            _cli(argv)

    def ops(self):
        made = {}
        for kind in schedule(self.rng, WEIGHTS):
            if kind not in made:
                made[kind] = getattr(self, "_" + kind)()
            yield made[kind]

    # -- helpers ---------------------------------------------------------------------

    def peak_rss_mb(self) -> float:
        """The largest peak resident set of an hfcalc process, over one
        untimed run of each command of the pool and of every error case."""
        commands = self.commands + [(self._error_argv(argv), env) for _name, argv, env, _known in ERRORS]
        return max(_peak_rss_kb(argv, env) for argv, env in commands) / 1024.0

    def _op(self, kind, argv, check, env_extra=None):
        self.commands.append((argv, env_extra))

        def run(tr):
            with tr.span(f"cli.process.{kind}") as span:
                proc = _cli(argv, env_extra)
                if proc.returncode != 0 or "Traceback" in proc.stderr:
                    span.fail()
            return proc

        def verdict(proc, error):
            if error is not None:
                return ("fail", f"{kind}: {error!r}")
            detail = check(proc)
            return None if detail is None else (detail if isinstance(detail, tuple) else ("fail", f"{kind} {argv}: {detail}"))

        return Op(kind, run, verdict, key=lambda proc: (proc.returncode, proc.stdout, proc.stderr))

    def _space_reference(self, stem, theory_spec, theory, n, p):
        """Expected descriptor tuple and the fields the law fixes."""
        _path, expr, ref = self.docs[stem]
        quasi = stem in QUASI
        if ref[0] == "cellular":
            want = cellular_cell(theory_spec, cell_counts(*ref[1]), n, p)
        elif ref[0] == "bundle":
            base = io.parse_space({"kind": "construct", "expr": ref[1]})
            variant = "log" if quasi else "analytic"
            cell = lambda nn, pp: as_tuple(hfc_group(base, theory, nn, pp, variant))
            want = shifted(cell, cell_counts(ref[2] - 1), n, p)
        else:
            model = spaces.as_quasiproj(io.parse_space({"kind": "construct", "expr": expr}))
            return as_tuple(hfc_group(model, theory, n, p, "log")), "ranks"
        return want, ("noctd" if quasi else "full")

    # -- op kinds ----------------------------------------------------------------------

    def _golden(self):
        name = sorted(GOLDEN_COMMANDS)[self.golden_i % len(GOLDEN_COMMANDS)]
        self.golden_i += 1
        want = self.golden[name]
        return self._op("golden", GOLDEN_COMMANDS[name], lambda proc: _clean_exit(proc) or (
            None if proc.stdout == want else f"{name} differs from its golden"))

    def _compute(self):
        rng = self.rng
        stem = rng.choice(sorted(self.docs))
        path, expr, _ref = self.docs[stem]
        arg = rng.choice(THEORY_ARGS)
        theory, spec = _theory(arg)
        top = max(tree_betti(expr))
        n, p = rng.randint(-2, top + 1), rng.randint(-1, top // 2 + 1)
        fmt = rng.choice(("table", "json"))
        argv = ["compute", "--space", path, "--theory", arg, "--n", str(n), "--p", str(p)]
        argv += ["--format", "json"] if fmt == "json" else ["--ascii"]

        def check(proc):
            bad = _clean_exit(proc)
            if bad:
                return bad
            if fmt == "json":
                got = json_tuple(json.loads(proc.stdout)["descriptor"])
            else:
                lines = dict(line.split(": ", 1) for line in proc.stdout.splitlines() if ": " in line)
                got = parse_ascii_group(lines["group"])
            want, mode = self._space_reference(stem, spec, theory, n, p)
            if fmt == "table":
                want = shown(want)
            return None if agree(got, want, mode) else f"{got} != {want}"

        return self._op("compute", argv, check)

    def _point_table(self):
        rng = self.rng
        arg = rng.choice(("MU", "HZ", KU2))
        _theory_obj, spec = _theory(arg)
        n0, p0 = rng.randint(-8, 2), rng.randint(-4, 1)
        n_range, p_range = (n0, n0 + rng.randint(0, 12)), (p0, p0 + rng.randint(0, 6))
        fmt = rng.choice(("table", "json"))
        argv = ["point-table", "--theory", arg, "--n-range", "%d..%d" % n_range, "--p-range", "%d..%d" % p_range]
        argv += ["--format", "json"] if fmt == "json" else ["--ascii"]

        def check(proc):
            bad = _clean_exit(proc)
            if bad:
                return bad
            rank = rank_function(spec)
            if fmt == "json":
                cells = {(c["n"], c["p"]): json_tuple(c["descriptor"]) for c in json.loads(proc.stdout)["cells"]}
                want = {(n, p): point_cell(rank, n, p) for n, p in cells}
            else:
                rows = [re.split(r"\s{2,}", line.strip()) for line in proc.stdout.splitlines()]
                ps = [int(x) for x in rows[0][1:]]
                cells = {(int(row[0]), p): parse_ascii_group(text) for row in rows[1:] for p, text in zip(ps, row[1:])}
                want = {(n, p): shown(point_cell(rank, n, p)) for n, p in cells}
            expected_keys = {(n, p) for n in range(n_range[0], n_range[1] + 1) for p in range(p_range[0], p_range[1] + 1)}
            if set(cells) != expected_keys:
                return "grid has the wrong cells"
            bad_cells = [k for k in cells if cells[k] != want[k]]
            return f"cells {bad_cells[:3]} differ from the closed form" if bad_cells else None

        return self._op("point_table", argv, check)

    def _check(self):
        rng = self.rng
        kind = CHECK_KINDS[self.check_i % len(CHECK_KINDS)]
        self.check_i += 1
        fmt = rng.choice(("table", "json"))
        expect_ok = True
        if kind == "splitting":
            stem = rng.choice(sorted(s for s in self.docs if s not in ("p40",)))
            args = ["--space", self.docs[stem][0], "--n", str(rng.randint(0, 8)), "--p", str(rng.randint(0, 4))]
        elif kind == "pbf":
            stem = rng.choice(sorted(self.docs))
            args = ["--space", self.docs[stem][0], "--r", str(rng.randint(1, 4)), "--theory", rng.choice(THEORY_ARGS),
                    "--n", str(rng.randint(-2, 8)), "--p", str(rng.randint(-1, 4))]
        elif kind == "a1":
            stem = rng.choice(sorted(QUASI))
            args = ["--space", self.docs[stem][0], "--theory", rng.choice(THEORY_ARGS),
                    "--n", str(rng.randint(-2, 8)), "--p", str(rng.randint(-1, 4))]
        elif kind == "mv":
            # The corrupted Gm breaks the Euler characteristic: the law says FAIL.
            # HZ and HQ only: the checker's wrong verdict for other theories is
            # a known defect that cell_sweep reports.
            expect_ok = rng.random() < 0.75
            w = "gm.json" if expect_ok else "bad_gm.json"
            args = ["--space", f"{FIXTURES}/p1.json", "--u", f"{FIXTURES}/a1.json", "--v", f"{FIXTURES}/a1.json",
                    "--w", f"{FIXTURES}/{w}", "--theory", rng.choice(("HZ", "HQ")), "--p", str(rng.randint(-2, 3))]
        elif kind == "grothendieck":
            stem = rng.choice(sorted(RING))
            r = rng.randint(1, 3)
            chern = ";".join(f"{rng.randint(1, 9)}*x^{q}" for q in range(1, rng.randint(0, r) + 1))
            args = ["--space", self.docs[stem][0], "--r", str(r)] + (["--chern", chern] if chern else [])
        else:
            stem = rng.choice(sorted(RING))
            args = ["--space", self.docs[stem][0], "--divisor-class", f"{rng.randint(1, 9)}*x"]
        argv = ["check", kind] + args + (["--format", "json"] if fmt == "json" else ["--ascii"])

        def check(proc):
            bad = _clean_exit(proc)
            if bad:
                return bad
            if fmt == "json":
                payload = json.loads(proc.stdout)
                ok = payload["ok"]
                if "lhs" in payload and ok != (payload["lhs"] == payload["rhs"]):
                    return "verdict disagrees with lhs/rhs"
            else:
                first = proc.stdout.splitlines()[0]
                ok = first == f"OK check {kind}"
                if not ok and first != f"FAIL check {kind}":
                    return f"unexpected verdict line {first!r}"
            return None if ok == expect_ok else f"verdict {ok}, the law says {expect_ok}"

        return self._op("check", argv, check)

    def _emit_space(self):
        stem = self.rng.choice(sorted(self.docs))
        path, expr, _ref = self.docs[stem]
        want = {str(n): b for n, b in tree_betti(expr).items() if b}

        def check(proc):
            bad = _clean_exit(proc)
            if bad:
                return bad
            doc = json.loads(proc.stdout)
            if doc["kind"] == "kahler":
                got = {n: entry[0] for n, entry in doc["betti"].items()}
                by_degree: dict = {}
                for key, v in doc["hodge"].items():
                    s, t = (int(x) for x in key.split(","))
                    by_degree[str(s + t)] = by_degree.get(str(s + t), 0) + v
                if by_degree != got:
                    return "Hodge numbers do not sum to the Betti ranks"
            else:
                got = dict(doc["betti_rank"])
            return None if got == want else f"Betti table {got} != Poincare polynomial {want}"

        return self._op("emit_space", ["emit-space", "--space", path], check)

    def _aj_input(self, g2, g3):
        """A point P = point_at(z0) written to 60 digits, with z0 and (g2, g3)."""
        curve = EllipticCurve(g2, g3, 60)
        with mp.workdps(80):
            z0 = mpf("0.3141592653589793") * curve.w1 + mpf("0.5772156649015329") * curve.w2
            x, y = curve.point_at(z0)
            text = lambda v: mp.nstr(mpc(v), 60)
            divisor = json.dumps([[[text(x), text(y)], 1], ["inf", -1]])
            return text(g2), text(g3), divisor, z0, mpc(g2), mpc(g3)

    def _aj(self):
        g2s, g3s, divisor, z0, g2, g3 = self.aj_inputs[self.aj_i % len(self.aj_inputs)]
        self.aj_i += 1
        argv = ["aj", "--g2", g2s, "--g3", g3s, "--divisor", divisor, "--format", "json"]

        def check(proc):
            bad = _clean_exit(proc)
            if bad:
                return bad
            out = json.loads(proc.stdout)
            digits = out["digits"]
            with mp.workdps(digits + 10):
                num = lambda c: mpc(mpf(c["re"]), mpf(c["im"]))
                z, w1, w2 = num(out["z"]), num(out["periods"]["w1"]), num(out["periods"]["w2"])
                tol = mpf(10) ** (-(digits - 3))
                g2r, g3r = lattice_invariants(w1, w2)
                if abs(g2r - g2) > tol * max(1, abs(g2)) or abs(g3r - g3) > tol * max(1, abs(g3)):
                    return "lattice invariants of the printed periods miss (g2, g3)"
                # z - z0 must be a lattice vector: solve in the basis (w1, w2).
                d = z - z0
                det = mp.re(w1) * mp.im(w2) - mp.im(w1) * mp.re(w2)
                a = (mp.re(d) * mp.im(w2) - mp.im(d) * mp.re(w2)) / det
                b = (mp.re(w1) * mp.im(d) - mp.im(w1) * mp.re(d)) / det
                off = abs((a - mp.nint(a)) * w1 + (b - mp.nint(b)) * w2)
                return None if off <= tol * abs(w1) else f"round trip misses z0 by {mp.nstr(off, 5)}"

        return self._op("aj", argv, check)

    def _error_argv(self, argv):
        return [a.format(**{s: str(self.tmp / f"{s}.json") for s in ERROR_DOCS}) for a in argv]

    def _error(self):
        """An error slot of the pool: each run takes the next case of ERRORS."""

        def run(tr):
            name, argv, env_extra, known = ERRORS[self.error_order[self.error_i % len(ERRORS)]]
            self.error_i += 1
            with tr.span("cli.process.error") as span:
                proc = _cli(self._error_argv(argv), env_extra)
                if proc.returncode not in (1, 2) or "Traceback" in proc.stderr:
                    span.fail()
            return name, known, proc

        def check(result, error):
            if error is not None:
                return ("fail", f"error: {error!r}")
            name, known, proc = result
            if proc.returncode in (1, 2) and "Traceback" not in proc.stderr:
                return None
            last = proc.stderr.strip().splitlines()[-1:] or [""]
            if known is not None and proc.returncode == 1 and "Traceback" in proc.stderr and last[0] == KNOWN_SYMPTOM:
                return ("known", known)
            return ("fail", f"error {name}: exit {proc.returncode}, stderr {proc.stderr.strip()[-200:]!r}")

        return Op("error", run, check)
