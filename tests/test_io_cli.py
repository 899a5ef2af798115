"""Serialization round-trips, descriptor rendering, and the CLI surface.

Golden files under tests/golden freeze the byte-exact output of the
point-table command and three compute fixtures; the determinism test also
reruns each command twice and compares bytes.
"""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hfcalc.abeljacobi import EllipticCurve
from hfcalc.cli import run
from hfcalc.coefficients import builtin_theory
from hfcalc.engine import GroupDescriptor, hfc_group
from hfcalc.errors import CurveError, ParseError
from hfcalc.io import (
    descriptor_from_json,
    descriptor_to_json,
    emit_space,
    load_theory_argument,
    parse_space,
    parse_space_text,
    render_descriptor,
)
from hfcalc.spaces import curve, gm, point, product, projective_bundle, projective_space

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
        assert load_theory_argument("HQ").is_rational

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

    @pytest.mark.parametrize("value", ["1+2j", "abc", None, [1]], ids=repr)
    def test_curve_coefficient_rejected(self, value):
        with pytest.raises(CurveError):
            EllipticCurve(value, 0)
        with pytest.raises(CurveError):
            EllipticCurve(4, value)


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
