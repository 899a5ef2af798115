"""Serialization round-trips, descriptor rendering, and the CLI surface.

Golden files under tests/golden freeze the byte-exact output of the
point-table command, three compute fixtures, the Abel-Jacobi command, every
check kind and emit-space; the determinism test also reruns each command
twice and compares bytes.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from mpmath import mp, mpc, mpf

from hfcalc.abeljacobi import Divisor, EllipticCurve
from hfcalc.cli import run
from hfcalc.coefficients import builtin_theory
from hfcalc.engine import GroupDescriptor, hfc_group
from hfcalc.errors import CurveError, ModelError, ParseError, RingError
from hfcalc.io import (
    descriptor_from_json,
    descriptor_to_json,
    emit_space,
    load_theory_argument,
    parse_space,
    parse_space_text,
    render_descriptor,
)
from hfcalc.spaces import (
    as_quasiproj,
    curve,
    gm,
    point,
    product,
    projective_bundle,
    projective_space,
    quasi_product,
)

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"


def fixture(name: str) -> str:
    return str(FIXTURES / name)


def run_cli(*argv: str) -> tuple[int, str]:
    buf = io.StringIO()
    code = run(list(argv), out=buf)
    return code, buf.getvalue()


def run_cli_process(*argv: str, **env_extra: str) -> tuple[int, str]:
    """Exit code and stderr of a separate ``python -m hfcalc.cli`` process."""
    env = dict(os.environ, **env_extra)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "hfcalc.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    return proc.returncode, proc.stderr


class TestSpaceDocuments:
    def test_construct_expression(self):
        model = parse_space({"kind": "construct", "expr": ["projective_space", 2]})
        assert model.name == "P2"
        assert model.betti_rank(4) == 1

    def test_explicit_tables_equal_constructor(self):
        doc = json.loads((FIXTURES / "elliptic_tables.json").read_text())
        model = parse_space(doc)
        e = curve(1)
        assert model.betti == e.betti
        assert model.hodge == e.hodge
        assert model.hodge_class_rank == e.hodge_class_rank

    def test_round_trip_all_fields(self):
        models = [
            point(),
            projective_space(3),
            curve(2),
            product(projective_space(1), curve(1)),
            projective_bundle(curve(1), 2),
            gm(),
            projective_bundle(gm(), 2),
        ]
        for model in models:
            back = parse_space(emit_space(model))
            assert type(back) is type(model)
            assert back == model, model.name

    def test_invariant_violation_named(self):
        doc = {
            "kind": "kahler",
            "name": "asym",
            "complex_dim": 1,
            "betti": {"0": [1, []], "1": [2, []], "2": [1, []]},
            "hodge": {"0,0": 1, "1,0": 2, "0,1": 0, "1,1": 1},
            "hodge_class_rank": {"0": 1},
        }
        with pytest.raises(Exception, match=r"h\^\{0,1\}|h\^\{1,0\}"):
            parse_space(doc)

    def test_parse_errors(self):
        with pytest.raises(ParseError, match="JSON"):
            parse_space_text("{not json")
        with pytest.raises(ParseError, match="kind"):
            parse_space({"kind": "mystery"})
        with pytest.raises(ParseError, match="unknown constructor"):
            parse_space({"kind": "construct", "expr": ["klein_bottle"]})

    def test_nested_construct(self):
        model = parse_space(
            {"kind": "construct", "expr": ["projective_bundle", ["curve", 1], 2]}
        )
        assert model.betti_rank(2) == 2


class TestTheoryDocuments:
    def test_builtin_names(self):
        assert load_theory_argument("MU").name == "MU"
        assert load_theory_argument("HQ").ring_field == "rational"

    def test_custom_file(self):
        theory = load_theory_argument(fixture("ku2.json"))
        assert theory.name == "KU-trunc"
        assert theory.rank_at(1) == 1

    def test_missing_file(self):
        with pytest.raises(ParseError, match="not a builtin"):
            load_theory_argument("NOPE")


class TestDescriptorJson:
    def test_round_trip_reachable_descriptors(self):
        mu = builtin_theory("MU")
        hz = builtin_theory("HZ")
        spaces = [point(), curve(1), projective_space(2), product(curve(1), curve(1))]
        seen = 0
        for model in spaces:
            for n in range(-3, 6):
                for p in range(-2, 4):
                    d = hfc_group(model, hz, n, p)
                    assert descriptor_from_json(descriptor_to_json(d)) == d
                    if not model.has_torsion:
                        d = hfc_group(model, mu, n, p)
                        assert descriptor_from_json(descriptor_to_json(d)) == d
                    seen += 1
        assert seen > 100

    def test_rendering(self):
        d = GroupDescriptor(free_rank=2, torsion=(2,), circle_rank=2, real_rank=1)
        assert render_descriptor(d, ascii_only=True) == "Z^2 + Z/2 + T^2 + R^1"
        torus = GroupDescriptor(free_rank=1, circle_rank=2, complex_torus_dim=1)
        assert render_descriptor(torus, ascii_only=True) == "Z + T^2 [complex torus dim 1]"
        assert render_descriptor(GroupDescriptor(), ascii_only=True) == "0"
        assert "⊕" in render_descriptor(d)  # unicode direct sum


class TestCliCommands:
    def test_compute_table(self):
        code, out = run_cli(
            "compute", "--space", fixture("elliptic.json"), "--theory", "HZ",
            "--n", "2", "--p", "1", "--ascii",
        )
        assert code == 0
        assert "group: Z + T^2 [complex torus dim 1]" in out
        assert "exactness: exact" in out

    def test_compute_json_schema(self):
        jsonschema = pytest.importorskip("jsonschema")
        schema = json.loads(
            (Path(__file__).parents[1] / "src" / "hfcalc" / "data" / "result.schema.json").read_text()
        )
        for argv in (
            ["compute", "--space", fixture("p2.json"), "--theory", "HZ", "--n", "2", "--p", "1"],
            ["point-table", "--theory", "MU", "--n-range", "-2..2", "--p-range", "-1..1"],
            ["check", "splitting", "--space", fixture("elliptic.json"), "--n", "2", "--p", "1"],
            ["check", "mv", "--space", fixture("p1.json"), "--u", fixture("a1.json"),
             "--v", fixture("a1.json"), "--w", fixture("gm.json"), "--theory", "HZ", "--p", "1"],
            ["check", "a1", "--space", fixture("gm.json"), "--theory", "MU", "--n", "1", "--p", "1"],
            ["check", "pbf", "--space", fixture("p1.json"), "--r", "2", "--theory", "MU", "--n", "2", "--p", "1"],
            ["check", "grothendieck", "--space", fixture("p2.json"), "--r", "2"],
            ["check", "transfer", "--space", fixture("p2.json"), "--divisor-class", "x"],
            ["aj", "--g2", "4", "--g3", "0", "--divisor", '[[["2", "4.898979485566356196394568149411782783931894961313340257"], 1], ["inf", -1]]'],
        ):
            code, out = run_cli(*argv, "--format", "json")
            assert code == 0, out
            jsonschema.validate(json.loads(out), schema)

    def test_point_table_text(self):
        code, out = run_cli(
            "point-table", "--theory", "MU", "--n-range", "-4..4", "--p-range", "-2..2", "--ascii"
        )
        assert code == 0
        assert "T^2 + R^2" in out

    def test_check_commands(self):
        ok_runs = [
            ["check", "splitting", "--space", fixture("p2.json"), "--n", "2", "--p", "1"],
            ["check", "mv", "--space", fixture("p1.json"), "--u", fixture("a1.json"),
             "--v", fixture("a1.json"), "--w", fixture("gm.json"), "--theory", "HZ", "--p", "1"],
            ["check", "a1", "--space", fixture("gm.json"), "--theory", "HZ", "--n", "1", "--p", "1"],
            ["check", "pbf", "--space", fixture("p1.json"), "--r", "2", "--theory", "MU", "--n", "2", "--p", "1"],
            ["check", "grothendieck", "--space", fixture("p2.json"), "--r", "3"],
            ["check", "transfer", "--space", fixture("p2.json"), "--divisor-class", "x"],
        ]
        for argv in ok_runs:
            code, out = run_cli(*argv)
            assert code == 0, (argv, out)
            assert out.startswith("OK"), (argv, out)

    def test_check_detects_corruption(self):
        code, out = run_cli(
            "check", "mv", "--space", fixture("p1.json"), "--u", fixture("a1.json"),
            "--v", fixture("a1.json"), "--w", fixture("bad_gm.json"), "--theory", "HZ", "--p", "1",
        )
        assert code == 0
        assert out.startswith("FAIL")

    def test_aj_output(self):
        code, out = run_cli(
            "aj", "--g2", "4", "--g3", "0",
            "--divisor", '[[["2", "4.898979485566356196394568149411782783931894961313340257"], 1], ["inf", -1]]',
        )
        assert code == 0
        assert "w1 = (2.622057554292119810464839589891119413683 + 0.0j)" in out
        assert "coords:" in out

    def test_domain_error_exit_code(self):
        code, _ = run_cli(
            "aj", "--g2", "3", "--g3", "1", "--divisor", "[]",
        )
        assert code == 1  # singular curve
        code, out = run_cli("aj", "--g2", "1e20", "--g3", "1", "--divisor", "[]")
        assert code == 0  # g3 << |g2|^(3/2): a valid curve, checked on its own scale
        assert "w1 = (0.00003708149354602743836867700694387978453181 + 0.0j)" in out
        code, _ = run_cli(
            "compute", "--space", fixture("gm.json"), "--theory", "HZ",
            "--n", "1", "--p", "1", "--variant", "analytic",
        )
        assert code == 1  # analytic variant on a quasi-projective model

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("compute", "--space", fixture("p2.json"))
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            run_cli("check", "mv", "--space", fixture("p1.json"))
        assert exc.value.code == 2

    def test_custom_theory_from_file(self):
        code, out = run_cli(
            "compute", "--space", fixture("p2.json"), "--theory", fixture("ku2.json"),
            "--n", "0", "--p", "0", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["theory"] == "KU-trunc"
        assert payload["descriptor"]["free_rank"] == 2

    def test_emit_space_round_trip(self):
        code, out = run_cli("emit-space", "--space", fixture("elliptic_tables.json"))
        assert code == 0
        model = parse_space(json.loads(out))
        assert model.betti_rank(1) == 2

    def test_aj_precision_env_var(self, monkeypatch):
        monkeypatch.setenv("HFCALC_AJ_PRECISION", "20")
        code, out = run_cli(
            "aj", "--g2", "4", "--g3", "0", "--divisor", "[]", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["digits"] == 20
        assert payload["periods"]["w1"]["re"].startswith("2.6220575542921198")


NOT_AN_INTEGER = [
    ["projective_space", "abc"],
    ["projective_space", None],
    ["projective_space", 1.5],
    ["projective_space", True],
    ["curve", "abc"],
    ["curve", None],
    ["curve", 1.5],
    ["affine_space", "abc"],
    ["affine_space", None],
    ["affine_space", 2.5],
    ["projective_bundle", ["point"], "abc"],
    ["projective_bundle", ["point"], None],
    ["projective_bundle", ["point"], 1.5],
]


def _edited(doc: dict, path: tuple, value) -> dict:
    """A copy of ``doc`` with the entry at ``path`` set to ``value``."""
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


ELLIPTIC_DOC = json.loads((FIXTURES / "elliptic_tables.json").read_text())
P1_DOC = emit_space(projective_space(1))
GM_DOC = emit_space(gm())
AJ_TWO_TORSION = ["aj", "--g2", "4", "--g3", "0", "--divisor"]

# Malformed integers from outside the program: id -> (space document or
# None, theory document or None, argv before the file flags).  Each must
# exit 1 with one line on stderr and no traceback.
MALFORMED_INTEGERS = {
    "hodge_1.5": (_edited(ELLIPTIC_DOC, ("hodge", "1,1"), 1.5), None, ["compute"]),
    "complex_dim_1.7": (_edited(ELLIPTIC_DOC, ("complex_dim",), 1.7), None, ["compute"]),
    "betti_rank_1.9": (_edited(ELLIPTIC_DOC, ("betti", "0"), [1.9, []]), None, ["compute"]),
    "betti_torsion_1.5": (_edited(ELLIPTIC_DOC, ("betti", "1"), [2, [1.5]]), None, ["compute"]),
    "hodge_class_rank_true": (_edited(ELLIPTIC_DOC, ("hodge_class_rank", "1"), True), None, ["compute"]),
    "hodge_key_1.5": (_edited(ELLIPTIC_DOC, ("hodge", "1.5,1"), 1), None, ["compute"]),
    "betti_rank_quasi_1.5": (_edited(GM_DOC, ("betti_rank", "1"), 1.5), None, ["compute"]),
    "filt_dim_true": (_edited(GM_DOC, ("filt_dim", "1,1"), True), None, ["compute"]),
    "ring_power_2.5": (_edited(P1_DOC, ("ring", "rules", 0, 0), 2.5), None, ["compute"]),
    "ring_degree_null": (_edited(P1_DOC, ("ring", "generators", 0, 1), None), None, ["compute"]),
    "theory_rank_1.5": (None, {"name": "t", "ranks": {"0": 1.5}}, ["compute"]),
    "theory_rank_true": (None, {"name": "t", "ranks": {"1": True}}, ["compute"]),
    "aj_multiplicity_1.5": (None, None, AJ_TWO_TORSION + ['[[["1", "0"], 1.5], ["inf", -1.5]]']),
    "aj_multiplicity_true": (None, None, AJ_TWO_TORSION + ['[[["1", "0"], true], ["inf", -1]]']),
    "aj_multiplicity_null": (None, None, AJ_TWO_TORSION + ['[[["1", "0"], null], ["inf", -1]]']),
    "ring_element_exponent": (P1_DOC, None, ["check", "transfer", "--divisor-class", "x^abc"]),
    "ring_element_coefficient": (P1_DOC, None, ["check", "transfer", "--divisor-class", "\u00b2*x"]),
}
# Betti entries of the wrong shape, run as processes.
BETTI_SHAPES = {
    "betti_[1,5]": [1, 5],
    "betti_[null,[]]": [None, []],
    "betti_[1]": [1],
    "betti_1": 1,
}


def _malformed_argv(tmp_path, space, theory, argv) -> list:
    space_path, theory_path = tmp_path / "space.json", tmp_path / "theory.json"
    space_path.write_text(json.dumps(space if space is not None else ELLIPTIC_DOC))
    theory_path.write_text(json.dumps(theory))
    if argv[0] == "compute":
        return argv + ["--space", str(space_path), "--theory", str(theory_path) if theory else "HZ",
                       "--n", "0", "--p", "0"]
    if argv[0] == "check":
        return argv + ["--space", str(space_path)]
    return argv


class TestInputBoundary:
    """Malformed input ends in a CalcError with exit code 1, never a traceback."""

    def test_aj_precision_not_an_integer(self):
        code, err = run_cli_process(
            "aj", "--g2", "4", "--g3", "0", "--divisor", '[["inf", 0]]', HFCALC_AJ_PRECISION="abc",
        )
        assert code == 1
        assert "Traceback" not in err
        assert "HFCALC_AJ_PRECISION" in err

    def test_constructor_argument_not_an_integer_process(self, tmp_path):
        path = tmp_path / "pabc.json"
        path.write_text(json.dumps({"kind": "construct", "expr": ["projective_space", "abc"]}))
        code, err = run_cli_process(
            "compute", "--space", str(path), "--theory", "HZ", "--n", "0", "--p", "0",
        )
        assert code == 1
        assert "Traceback" not in err
        assert "projective_space" in err

    @pytest.mark.parametrize("expr", NOT_AN_INTEGER, ids=json.dumps)
    def test_constructor_argument_not_an_integer(self, expr, tmp_path, capsys):
        path = tmp_path / "space.json"
        path.write_text(json.dumps({"kind": "construct", "expr": expr}))
        code, _ = run_cli("compute", "--space", str(path), "--theory", "HZ", "--n", "0", "--p", "0")
        assert code == 1
        assert "Traceback" not in capsys.readouterr().err
        with pytest.raises(ParseError):
            parse_space({"kind": "construct", "expr": expr})

    def test_integral_arguments_accepted(self):
        for expr in (["curve", 1.0], ["projective_space", "2"], ["projective_bundle", ["point"], 3.0]):
            parse_space({"kind": "construct", "expr": expr})
        assert parse_space({"kind": "construct", "expr": ["curve", 2.0]}).betti_rank(1) == 4

    @pytest.mark.parametrize("name", sorted(MALFORMED_INTEGERS))
    def test_malformed_integer(self, name, tmp_path, capsys):
        argv = _malformed_argv(tmp_path, *MALFORMED_INTEGERS[name])
        code, _ = run_cli(*argv)
        err = capsys.readouterr().err
        assert code == 1
        assert "Traceback" not in err
        assert len(err.splitlines()) == 1, err

    @pytest.mark.parametrize("name", sorted(BETTI_SHAPES))
    def test_betti_entry_shape_process(self, name, tmp_path):
        space = _edited(ELLIPTIC_DOC, ("betti", "0"), BETTI_SHAPES[name])
        code, err = run_cli_process(*_malformed_argv(tmp_path, space, None, ["compute"]))
        assert code == 1
        assert "Traceback" not in err
        assert len(err.splitlines()) == 1 and err.startswith("betti[0]: "), err

    def test_integral_table_values_accepted(self, tmp_path):
        # Integral floats and numeral strings read as the integers they name,
        # in every table, theory rank and divisor multiplicity.
        def spelled(x, as_):
            if isinstance(x, dict):
                return {k: v if k in ("kind", "name") else spelled(v, as_) for k, v in x.items()}
            if isinstance(x, list):
                return [spelled(v, as_) for v in x]
            return as_(x) if type(x) is int else x

        models = (product(curve(1), curve(2)), projective_bundle(projective_space(1), 2), _torsion_bundle(),
                  quasi_product(gm(), as_quasiproj(curve(2))))
        for model in models:
            doc = emit_space(model)
            for as_ in (float, str):
                assert emit_space(parse_space(spelled(doc, as_))) == doc
        theory = tmp_path / "ku.json"
        theory.write_text(json.dumps({"name": "KU-trunc", "ranks": {"0": "1", "1": 1.0}}))
        assert load_theory_argument(str(theory)) == load_theory_argument(fixture("ku2.json"))
        outs = {
            run_cli(*AJ_TWO_TORSION, json.dumps([[["1", "0"], m], ["inf", n]]))
            for m, n in ((1, -1), (1.0, -1.0), ("1", "-1"))
        }
        assert len(outs) == 1 and outs.pop()[0] == 0

    @pytest.mark.parametrize("tail", [[[[3], 1]], [[[], 1]]], ids=["x2-is-x3", "wrong-length"])
    def test_ring_rule_refused(self, tail, tmp_path, capsys):
        # x^2 = x^3 on P^1 loaded, then reducing x^2 never ended; the
        # short monomial read as a constant.  Both are refused on loading.
        doc = {
            "kind": "kahler", "name": "evil", "complex_dim": 1,
            "betti": {"0": [1, []], "2": [1, []]}, "hodge": {"0,0": 1, "1,1": 1},
            "hodge_class_rank": {"0": 1, "1": 1},
            "ring": {"generators": [["x", 2]], "rules": [[2, tail]]},
        }
        with pytest.raises(RingError, match="tail monomial"):
            parse_space(doc)
        path = tmp_path / "evil.json"
        path.write_text(json.dumps(doc))
        code, _ = run_cli("check", "transfer", "--space", str(path), "--divisor-class", "x^2")
        assert code == 1
        assert "tail monomial" in capsys.readouterr().err

    def test_quasiprojective_entries_need_betti_rank(self, tmp_path, capsys):
        doc = {
            "kind": "quasiprojective", "betti_rank": {"0": 1},
            "filt_dim": {"1,1": 1, "2,5": 3}, "lattice_in_f": {"1,1": 1},
        }
        with pytest.raises(ModelError, match=r"\(p=1, n=1\) outside the windows 1 <= p <= n of the degrees with Betti rank"):
            parse_space(doc)
        path = tmp_path / "gap.json"
        path.write_text(json.dumps(doc))
        code, _ = run_cli("emit-space", "--space", str(path))
        assert code == 1
        assert "degrees with Betti rank" in capsys.readouterr().err

    def test_aj_zero_multiplicity_bad_coordinate(self):
        # Every coordinate is parsed, even one whose multiplicity is 0.
        code, _ = run_cli(*AJ_TWO_TORSION, '[[["1", "0"], 1], ["inf", -1], [["zz", "1"], 0]]')
        assert code == 1

    def test_aj_builds_one_divisor(self, monkeypatch):
        calls = []
        real = Divisor.__init__

        def spy(self, entries):
            calls.append(entries)
            real(self, entries)

        monkeypatch.setattr(Divisor, "__init__", spy)
        code, _ = run_cli(*AJ_TWO_TORSION, '[[["1", "0"], 1], ["inf", -1]]')
        assert code == 0
        assert len(calls) == 1

    def test_aj_hostile_precision_process(self):
        start = time.monotonic()
        code, err = run_cli_process(
            "aj", "--g2", "4", "--g3", "0", "--divisor", "[]", HFCALC_AJ_PRECISION="100000",
        )
        assert time.monotonic() - start < 2.0
        assert code == 1
        assert "Traceback" not in err
        assert "1000 digits" in err

    def test_point_table_hostile_grid_process(self):
        start = time.monotonic()
        code, err = run_cli_process(
            "point-table", "--theory", "MU", "--n-range", "-1000..1000", "--p-range", "-1000..1000",
        )
        assert time.monotonic() - start < 2.0
        assert code == 1
        assert "Traceback" not in err
        assert "100000" in err

    def test_aj_near_singular_curve(self, monkeypatch):
        # |disc| / scale is about 2e-53: the roots need extra precision to
        # converge, and points near the node need extra working digits.
        monkeypatch.setenv("HFCALC_AJ_PRECISION", "100")
        argv = ["aj", "--g2", NEAR_SINGULAR_G2, "--g3", NEAR_SINGULAR_G3]
        code, _ = run_cli(*argv, "--divisor", "[]")
        assert code == 0
        with mp.workdps(110):
            e = EllipticCurve(mp.mpmathify(NEAR_SINGULAR_G2), mp.mpmathify(NEAR_SINGULAR_G3), 100)
        with mp.workdps(e._workdps):
            z0 = mpf("0.3") * e.w1 + mpf("0.6") * e.w2
            x, y = (mp.nstr(v, e._workdps) for v in e.point_at(z0))
            code, out = run_cli(*argv, "--divisor", json.dumps([[[x, y], 1], ["inf", -1]]), "--format", "json")
            assert code == 0
            z = json.loads(out)["z"]
            z1 = mp.mpmathify(z["re"]) + 1j * mp.mpmathify(z["im"])
            assert e.lattice_distance(z1 - z0) <= mpf(10) ** -97 * abs(e.w1)

    @pytest.mark.parametrize("value", ["1+2j", "abc", None, [1], "nan", "inf", mpc(1, "-inf")], ids=repr)
    def test_curve_coefficient_rejected(self, value):
        with pytest.raises(CurveError):
            EllipticCurve(value, 0)
        with pytest.raises(CurveError):
            EllipticCurve(4, value)

    @pytest.mark.parametrize(
        "g2, g3, divisor",
        [
            ("1", "1", '[[["1", "inf"], 1], [null, -1]]'),  # on-curve residual inf/inf = nan
            ("1", "1", "[[[1e400, 2], 1], [null, -1]]"),  # JSON reads 1e400 as inf
            ("nan", "1", "[]"),
            ("1", "inf", "[]"),
            ("1", "2j+", "[]"),  # mpmath's parser fails with AttributeError here
        ],
        ids=["point_inf", "point_json_overflow", "g2_nan", "g3_inf", "g3_malformed"],
    )
    def test_aj_non_finite_input_process(self, g2, g3, divisor):
        code, err = run_cli_process("aj", "--g2", g2, "--g3", g3, "--divisor", divisor)
        assert code == 1
        assert "Traceback" not in err
        assert "finite" in err or "cannot parse" in err


NEAR_SINGULAR_G2 = (
    "0.0006552104316479137105725722909456306360986429534871701577081338685915219699484879356532474048435688018798828125"
)
NEAR_SINGULAR_G3 = (
    "0.000003227671465082218756630609689870209369938793025731742159037473357085166521054226895055151530828616697116470859"
)


GOLDEN_COMMANDS = {
    "point_table_mu.txt": [
        "point-table", "--theory", "MU", "--n-range", "-4..4", "--p-range", "-2..2", "--ascii",
    ],
    "compute_p2_hz_2_1.json": [
        "compute", "--space", fixture("p2.json"), "--theory", "HZ", "--n", "2", "--p", "1",
        "--format", "json",
    ],
    "compute_elliptic_hz_2_1.txt": [
        "compute", "--space", fixture("elliptic.json"), "--theory", "HZ", "--n", "2", "--p", "1",
        "--ascii",
    ],
    "compute_p1_mu_0_0.json": [
        "compute", "--space", fixture("p1.json"), "--theory", "MU", "--n", "0", "--p", "0",
        "--format", "json",
    ],
}


# Abel-Jacobi goldens: name -> (HFCALC_AJ_PRECISION, argv).
AJ_GOLDEN_COMMANDS = {
    "aj_real_pos_disc.txt": (
        40, ["aj", "--g2", "12", "--g3", "4", "--divisor", '[[["2", "2"], 1], [["-1", "2"], -1]]'],
    ),
    "aj_real_neg_disc.json": (
        40, ["aj", "--g2", "4", "--g3", "8", "--divisor", '[[["2", "4"], 1], ["inf", -1]]', "--format", "json"],
    ),
    "aj_complex.txt": (
        40, ["aj", "--g2", "1+2j", "--g3", "2-2j", "--divisor", '[[["1", "1"], 2], ["inf", -2]]'],
    ),
    "aj_two_torsion.json": (
        40, ["aj", "--g2", "4", "--g3", "0", "--divisor", '[[["1", "0"], 1], ["inf", -1]]', "--format", "json"],
    ),
    "aj_d100.txt": (
        100, ["aj", "--g2", "1+2j", "--g3", "2-2j", "--divisor", '[[["1", "-1"], 1], ["inf", -1]]'],
    ),
}


@pytest.mark.parametrize("name", sorted(AJ_GOLDEN_COMMANDS))
def test_aj_solves_once(monkeypatch, name):
    # The printed (a, b) are those of the one reduction, also for the
    # two-torsion divisor, whose value aj returns unreduced.
    calls = []
    frac_coords = EllipticCurve.frac_coords

    def spy(self, z):
        calls.append(z)
        return frac_coords(self, z)

    digits, argv = AJ_GOLDEN_COMMANDS[name]
    monkeypatch.setenv("HFCALC_AJ_PRECISION", str(digits))
    monkeypatch.setattr(EllipticCurve, "frac_coords", spy)
    code, _ = run_cli(*argv)
    assert code == 0
    assert len(calls) == 1


def test_cli_import_leaves_abeljacobi_out():
    # Only the aj subcommand loads the Abel-Jacobi module, and no hfcalc
    # process pays for dataclasses and the inspect machinery it imports.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    code = (
        "import sys, hfcalc.cli; print(sorted(m for m in sys.modules if m.startswith('hfcalc')));"
        " print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    hfcalc_modules, heavy = proc.stdout.splitlines()
    assert "hfcalc.cli" in hfcalc_modules and "hfcalc.abeljacobi" not in hfcalc_modules, proc.stdout
    assert heavy == "[]", proc.stdout


def _check_argvs() -> dict:
    """The six check kinds (plus a FAIL verdict), each in table and JSON form."""
    base = {
        "splitting": ["check", "splitting", "--space", fixture("p2.json"), "--n", "2", "--p", "1"],
        "mv": ["check", "mv", "--space", fixture("p1.json"), "--u", fixture("a1.json"),
               "--v", fixture("a1.json"), "--w", fixture("gm.json"), "--theory", "MU", "--p", "1"],
        "mv_fail": ["check", "mv", "--space", fixture("p1.json"), "--u", fixture("a1.json"),
                    "--v", fixture("a1.json"), "--w", fixture("bad_gm.json"), "--theory", "HZ", "--p", "1"],
        "a1": ["check", "a1", "--space", fixture("gm.json"), "--theory", "HZ", "--n", "1", "--p", "1"],
        "pbf": ["check", "pbf", "--space", fixture("elliptic.json"), "--r", "3", "--theory", "MU",
                "--n", "3", "--p", "2"],
        "grothendieck": ["check", "grothendieck", "--space", fixture("p2.json"), "--r", "3",
                         "--chern", "3*x;3*x^2;x^3"],
        "transfer": ["check", "transfer", "--space", fixture("p2.json"), "--divisor-class", "2*x"],
    }
    out = {}
    for name, argv in base.items():
        out[f"check_{name}.txt"] = (0, argv)
        out[f"check_{name}.json"] = (0, argv + ["--format", "json"])
    # A domain error: the golden holds the message on stderr.
    out["check_a1_error.txt"] = (1, ["check", "a1", "--space", fixture("p1.json"), "--theory", "HZ"])
    return out


# check goldens: name -> (exit code, argv); the golden is stdout, or stderr
# when the exit code is nonzero.
CHECK_GOLDEN_COMMANDS = _check_argvs()


def _torsion_bundle():
    return projective_bundle(parse_space_text((FIXTURES / "torsion.json").read_text()), 3)


# emit-space goldens: name -> model; the golden is `hfcalc emit-space` on the
# model's emitted document, so it also pins the parse/emit round trip.
EMIT_GOLDEN_MODELS = {
    "emit_product_curve1_curve2.json": lambda: product(curve(1), curve(2)),
    "emit_bundle_torsion_3.json": _torsion_bundle,
    "emit_bundle_gm_3.json": lambda: projective_bundle(gm(), 3),
    "emit_quasi_product_gm_curve2.json": lambda: quasi_product(gm(), as_quasiproj(curve(2))),
}


def golden_output(name: str, tmp_path) -> tuple[int, str]:
    """Exit code and golden-comparable output of a check or emit-space golden."""
    if name in EMIT_GOLDEN_MODELS:
        path = tmp_path / "space.json"
        path.write_text(json.dumps(emit_space(EMIT_GOLDEN_MODELS[name]())), encoding="utf-8")
        return run_cli("emit-space", "--space", str(path))
    code, argv = CHECK_GOLDEN_COMMANDS[name]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        got, out = run_cli(*argv)
    assert got == code, (name, out, err.getvalue())
    return got, out if code == 0 else err.getvalue()


class TestGoldenOutputs:
    @pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
    def test_byte_identical(self, name):
        argv = GOLDEN_COMMANDS[name]
        code1, out1 = run_cli(*argv)
        code2, out2 = run_cli(*argv)
        assert code1 == code2 == 0
        assert out1 == out2
        golden = (GOLDEN / name).read_text(encoding="utf-8")
        assert out1 == golden
