"""A mutation fence: one-line mutants of the program's rules, each with the
tests that must fail on it.

Each mutant names a module under ``src/hfcalc``, one line as it stands
there (without its indentation; it must occur exactly once), the line put
in its place, and the tests, as pytest ids, of which at least one must fail.
The runner copies ``src/``, ``tests/`` and ``pyproject.toml`` into a
temporary directory, checks that every named test passes there, then
applies each mutant in turn and runs its tests with a fixed Hypothesis
seed.  A mutant whose tests all pass has survived; the runner then exits 1.

    python tests/mutants.py

pytest does not collect this module, since its name does not start with
``test_``: one run costs a pytest process per mutant, more than tier-1 has
time for, so CI runs it on pull requests only.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

AJ = "tests/test_abeljacobi.py::"
ELEM = "tests/test_elementary.py::"
REFUSED = "tests/test_io_cli.py::TestRefusals::test_refused"
PINNED = "tests/test_pinned_cells.py::test_log_and_diagonal_cells"
NODES = "tests/test_spaces.py::TestReferenceConstructors::test_every_kind_of_node"
WALK = "tests/test_spaces.py::TestPieceCheck::test_same_verdict_as_the_window_walk"

# (name, module, old line, new line, tests)
MUTANTS = [
    # The engine's rules, which no checker tests independently.
    ("certified_f_at_most_1", "engine.py",
     "certified = (2 * q > m) if kahler else (f_block == 0)",
     "certified = (2 * q > m) if kahler else (f_block <= 1)", [PINNED]),
    ("kahler_rule_2q_at_least_m", "engine.py",
     "certified = (2 * q > m) if kahler else (f_block == 0)",
     "certified = (2 * q >= m) if kahler else (f_block == 0)", [PINNED]),
    ("torus_on_every_diagonal", "engine.py",
     "ctd = circle // 2 if kahler and diagonal else None",
     "ctd = circle // 2 if diagonal else None", [PINNED]),
    ("excess_positive", "engine.py", "if excess >= 0:", "if excess > 0:",
     ["tests/test_engine.py::TestHfcGroup::test_analytic_picard_shape"]),
    # The cellular Hodge-Tate rule, as a Kahler model stores it: the lattice steps
    # from b_n at the smallest Hodge level s (not below it), then at n / 2.
    ("odd_lattice_below_s_min", "spaces.py",
     "lattice[n] = (s, n // 2), (b, 0 if n % 2 else hcr(n // 2, 0), 0)",
     "lattice[n] = (s - 1, n // 2), (b, 0 if n % 2 else hcr(n // 2, 0), 0)",
     ["tests/test_spaces.py::TestLatticeRule::test_odd_degree_real_lattice"]),
    ("single_type_row_shifted", "spaces.py",
     "filt[n] = lattice[n] = (s,), (b, 0)", "filt[n] = lattice[n] = (s + 1,), (b, 0)",
     ["tests/test_spaces.py::TestFiltration::test_examples"]),
    ("blocks_parity", "engine.py", "if (m - degree) % 2:", "if (m - degree) % 2 == 0:",
     [PINNED, "tests/test_engine.py::TestERank::test_curve_degree_one"]),
    ("variant_always_log", "engine.py",
     "return ANALYTIC if isinstance(model, KahlerModel) else LOG", "return LOG",
     ["tests/test_io_cli.py::TestGoldenOutputs"]),
    # The model constructors.
    ("convolve_pair_keys", "spaces.py",
     "key = k + l if isinstance(k, int) else (k[0] + l[0], k[1] + l[1])",
     "key = k + l if isinstance(k, int) else (k[0] + l[0], k[1] + l[0])",
     ["tests/test_engine.py::TestHfcGroup::test_certified_off_diagonal"]),
    # Both model kinds stored as graded pieces.
    ("bundle_drops_shift_0", "spaces.py",
     "out[a + i] = out.get(a + i, 0) + v", "out[a + i] = out.get(a + i, 0) + (v if i else 0)",
     [PINNED, "tests/test_engine.py::TestBundleFormula::test_other_builtin_bases"]),
    ("bundle_piece_unshifted", "spaces.py",
     "out[a + i] = out.get(a + i, 0) + v", "out[a] = out.get(a, 0) + v", [NODES]),
    ("window_drops_top_level", "spaces.py",
     "pos = sorted([a for a, v in gr.items() if v and a > 0])", "pos = sorted([a for a, v in gr.items() if v and a > 0])[:-1]",
     [PINNED, "tests/test_engine.py::TestBundleFormula::test_other_builtin_bases"]),
    ("accessor_bisect_right", "spaces.py",
     # bisect_right(pos, p) is bisect_left(pos, p + 1) on integer positions.
     "return tail[1][bisect_left(tail[0], p)] if tail else 0", "return tail[1][bisect_left(tail[0], p + 1)] if tail else 0",
     ["tests/test_spaces.py::TestQuasiProj::test_gm_filtration", "tests/test_spaces.py::TestFiltration::test_examples"]),
    ("store_drops_the_head", "spaces.py",
     # F^0 = L^0 = b_n in front of a quasi-projective degree's positive pieces.
     "tails[n] = (0, *pos), (b, *reversed(sums))", "tails[n] = tuple(pos), tuple(reversed(sums))",
     ["tests/test_spaces.py::TestQuasiProj::test_gm_filtration", NODES]),
    ("eq_ignores_the_lattice", "spaces.py",
     '_key = attrgetter("name", "betti", "_filt", "_lattice", "hodge_class_rank", "ring")  # what == compares',
     '_key = attrgetter("name", "betti", "_filt", "hodge_class_rank", "ring")  # what == compares',
     ["tests/test_frozen.py::test_quasi_projective_eq_and_replace_read_the_stored_pieces"]),
    ("quasiproj_drops_middle_lattice_piece", "spaces.py",
     "lattice[n] = (s, n // 2), (b, 0 if n % 2 else hcr(n // 2, 0), 0)",
     "lattice[n] = (s, n // 2), (b, 0, 0)", [NODES]),
    ("bundle_limit_off_by_one", "spaces.py",
     "if top > MAX_QUASI_DEGREE:", "if top > MAX_QUASI_DEGREE + 1:",
     ["tests/test_spaces.py::TestProjectiveBundle::test_quasiproj_top_degree_limit"]),
    ("product_takes_quasi_projective", "spaces.py",
     "if not (isinstance(x, KahlerModel) and isinstance(y, KahlerModel)):",
     "if not (isinstance(x, KahlerModel) or isinstance(y, KahlerModel)):",
     ["tests/test_spaces.py::TestQuasiProj::test_product_refuses_quasi_projective_factor"]),
    ("tor_lcm", "abelian.py",
     "return FgAbelianGroup.of(0, (gcd(s, t) for s in self.torsion for t in other.torsion))",
     "return FgAbelianGroup.of(0, (s * t // gcd(s, t) for s in self.torsion for t in other.torsion))",
     ["tests/test_abelian.py::TestFgAbelianGroup::test_tensor_and_tor_examples"]),
    ("partition_last_pentagonal_term", "coefficients.py",
     "term = table[m - g] + (table[m - g - k] if g + k <= m else 0)",
     "term = table[m - g] + (table[m - g - k] if g + k < m else 0)",
     ["tests/test_coefficients.py::TestMuRank"]),
    ("hodge_classes_below_b", "spaces.py",
     "if hcr(q, 0) != b:", "if hcr(q, 0) > b:",
     ["tests/test_engine.py::TestTransfer::test_no_room_for_the_class"]),
    # Deligne's constraints on quasi-projective tables.
    ("full_filtration_lattice_unchecked", "spaces.py",
     "if f == b and lat != b:", "if f == b and lat > b:", [REFUSED + "[quasi_lattice_short_of_h2]", WALK]),
    ("codim_bound_slack", "spaces.py",
     "if b - f > mirror:", "if b - f > mirror + 1:", [REFUSED + "[quasi_gr0_without_mirror]", WALK]),
    ("mirror_rule_skips_a_breakpoint", "spaces.py",
     "for p in cells:  # the Deligne rules", "for p in cells[1:]:  # the Deligne rules",
     [REFUSED + "[quasi_gr0_without_mirror]", WALK]),
    ("graded_piece_drops_next_level", "spaces.py",
     "return table(a, n) - table(a + 1, n)", "return table(a, n) - table(a, n)",
     ["tests/test_reference_engine.py::TestLatticeRule::test_lattice_ranks"]),
    ("graded_pieces_drops_next_level", "spaces.py",
     "{a: d for a, s, t in zip(pos, sums, sums[1:]) if (d := s - t)}",
     "{a: d for a, s, t in zip(pos, sums, sums[1:]) if (d := s)}",
     [NODES, "tests/test_engine.py::TestBundleFormula::test_other_builtin_bases"]),
    # The size limits.
    ("product_terms_without_rings", "io.py",
     "terms = terms_x + terms_y + pairs + _ring_basis(x.ring) * _ring_basis(y.ring)",
     "terms = terms_x + terms_y + pairs",
     ["tests/test_io_cli.py::TestSizeLimits"]),
    ("bundle_terms_once", "io.py",
     "terms += r * (sum(map(len, _tables(base))) + _ring_basis(base.ring))",
     "terms += sum(map(len, _tables(base))) + _ring_basis(base.ring)",
     ["tests/test_io_cli.py::TestSizeLimits"]),
    ("pbf_rank_unchecked", "cli.py", "check_bundle(model, args.r)", "pass",
     ["tests/test_io_cli.py::TestSizeLimits::test_hostile_flag[pbf_rank_past_the_limit]"]),
    ("partition_limit_off_by_one", "coefficients.py",
     "if n > MAX_PARTITION_DEGREE:", "if n > MAX_PARTITION_DEGREE + 1:",
     ["tests/test_coefficients.py::TestMuRank::test_degree_limit"]),
    # The one integer reader, which flags, ranges and documents share.
    ("int_reader_takes_python_numerals", "errors.py",
     "if digits.isascii() and digits.isdigit():", "if True:",
     [REFUSED + "[flag_underscore]", REFUSED + "[range_underscore]",
      "tests/test_io_cli.py::TestInputBoundary::test_malformed_integer[complex_dim_1_0]"]),
    ("pair_key_unsigned", "io.py",
     '_PAIR_KEY = re.compile(r"(-?[0-9]+),(-?[0-9]+)")  # two of _int_arg\'s numerals',
     '_PAIR_KEY = re.compile(r"([0-9]+),([0-9]+)")  # two of _int_arg\'s numerals',
     [REFUSED + "[pair_key_negative]"]),
    # The ring layer.
    ("reader_empty_power", "io.py",
     'expo[index[name]] += _int_arg(power, "ring element exponent") if caret else 1',
     'expo[index[name]] += _int_arg(power, "ring element exponent") if power else 1',
     ["tests/test_io_cli.py::TestRingElements::test_refused"]),
    ("quasi_ring_unchecked", "spaces.py", "_check_ring(self, betti)", "pass",
     ["tests/test_spaces.py::TestQuasiProj::test_ring_dimensions_are_betti_ranks"]),
    ("uniquify_reuses_a_name", "rings.py", "while unique in taken:", "if unique in taken:",
     ["tests/test_rings.py::TestTensor::test_p1_cubed_names_distinct"]),
    ("reduce_keeps_the_rule_power", "rings.py", "if e >= power:", "if e > power:",
     ["tests/test_rings.py::TestPolynomialQuotient::test_truncation"]),
    # The Abel-Jacobi path.
    ("asin_cut_sign", "_elementary.py",
     "return sign * (half_pi - 2 * ar), sign * -2 * ai",
     "return sign * (half_pi - 2 * ar), -2 * ai",
     [ELEM + "TestArcsine"]),
    ("cell_snap_tolerance", "_elementary.py",
     "na, nb = (0 if abs(n - _nint(n, den) * den) * ten_digits <= tol else n % den for n in (na, nb))",
     "na, nb = (0 if abs(n - _nint(n, den) * den) * math.isqrt(ten_digits) <= tol else n % den for n in (na, nb))",
     [ELEM + "TestCellReduction"]),
    ("cell_nearest_mod_det", "_elementary.py",
     "na, nb, den = na * m % (2 * det), nb * m % (2 * det), det",
     "na, nb, den = na * m % det, nb * m % det, det",
     [ELEM + "TestFarFromTheBasis"]),
    ("round_ties_away_from_even", "_elementary.py",
     "n = _nint(n, 1 << k)",
     "n = 2 * n + (1 << k) >> k + 1 if n > 0 else -(-2 * n + (1 << k) >> k + 1)",
     [ELEM + "TestRound"]),
    ("lattice_orientation_flipped", "abeljacobi.py",
     "if det < 0:  # Im(w2 / w1) < 0", "if det > 0:  # Im(w2 / w1) < 0",
     [AJ + "TestPeriods::test_round_trip_complex_invariants"]),
    ("aj_sum_ignores_multiplicity", "abeljacobi.py",
     "total = _zadd(total, self._log(pt), self._prec, mult)",
     "total = _zadd(total, self._log(pt), self._prec)",
     [AJ + "TestAbelJacobi::test_trivial_divisor"]),
    # The dead-code fence: an equivalent inline call leaves _agm_sequence without a caller.
    ("agm_sequence_inlined", "abeljacobi.py",
     "unit, pairs = _agm_sequence(a, b, mp.prec, mp.dps)",
     "unit = _agm_unit(mp.mag(a), mp.mag(b), mp.prec); pairs = _agm_pairs(*_fixed(a, -unit), *_fixed(b, -unit), mp.dps)",
     ["tests/test_dead_code.py::test_every_uncalled_definition_is_allowed"]),
]


def _apply(text: str, old: str, new: str, where: str) -> str:
    """``text`` with its one line ``old`` (indentation aside) replaced by ``new``."""
    lines = text.split("\n")
    hits = [i for i, line in enumerate(lines) if line.strip() == old]
    if len(hits) != 1:
        raise SystemExit(f"{where}: {len(hits)} lines read {old!r}, expected one")
    line = lines[hits[0]]
    lines[hits[0]] = line[: len(line) - len(line.lstrip())] + new
    return "\n".join(lines)


def _pytest(tree: Path, tests: list) -> int:
    """pytest's exit code on ``tests`` in ``tree``: 0 all passed, 1 some failed."""
    # No bytecode: a mutant the same size as the last one, written within the
    # same second, would otherwise run the last one's cached bytecode.
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--hypothesis-seed=0", *tests]
    return subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def run(mutants: list) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis")
        shutil.copytree(ROOT / "src", tree / "src", ignore=skip)
        shutil.copytree(ROOT / "tests", tree / "tests", ignore=skip)
        shutil.copy(ROOT / "pyproject.toml", tree)
        named = sorted({test for *_line, tests in mutants for test in tests})
        if _pytest(tree, named):
            print("the named tests do not all pass on the unmutated tree")
            return 1
        failed = 0
        for name, module, old, new, tests in mutants:
            path = tree / "src" / "hfcalc" / module
            original = path.read_text()
            path.write_text(_apply(original, old, new, f"{name} ({module})"))
            code = _pytest(tree, tests)
            path.write_text(original)
            verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"ERROR (pytest exit {code})")
            failed += code != 1
            print(f"{verdict:10} {name}: {module}: {new}", flush=True)
        print(f"{len(mutants) - failed} of {len(mutants)} mutants killed")
        return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(run(MUTANTS))
