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
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from mpmath import mp, mpc, mpf

import hfcalc
from hfcalc.abeljacobi import Divisor, EllipticCurve
from hfcalc.cli import run
from hfcalc.coefficients import builtin_theory, partition_count
from hfcalc.engine import GroupDescriptor, hfc_group
from hfcalc.errors import CalcError, CurveError, ModelError, ParseError, RingError
from hfcalc.io import (
    check_bundle,
    descriptor_to_json,
    emit_space,
    load_theory_argument,
    parse_ring_element,
    parse_space,
    parse_space_text,
    render_descriptor,
)
from hfcalc.spaces import (
    affine_space,
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
SCHEMA = SRC / "hfcalc" / "data" / "result.schema.json"


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


def descriptor_schema_error(raw):
    """The shipped schema's first complaint about a descriptor object, or None."""
    jsonschema = pytest.importorskip("jsonschema")
    validator = jsonschema.Draft202012Validator(json.loads(SCHEMA.read_text())["$defs"]["descriptor"])
    return next(validator.iter_errors(raw), None)


class TestDescriptorJson:
    """Descriptor JSON is only written: it carries every field, in the shipped schema's shape."""

    def test_round_trip_reachable_descriptors(self):
        mu = builtin_theory("MU")
        hz = builtin_theory("HZ")
        spaces = [point(), curve(1), projective_space(2), product(curve(1), curve(1))]
        seen = 0
        for model in spaces:
            for n in range(-3, 6):
                for p in range(-2, 4):
                    for theory in (hz,) if model.has_torsion else (hz, mu):
                        d = hfc_group(model, theory, n, p)
                        raw = descriptor_to_json(d)
                        assert descriptor_schema_error(raw) is None
                        assert GroupDescriptor(**dict(raw, torsion=tuple(raw["torsion"]))) == d
                    seen += 1
        assert seen > 100

    @pytest.mark.parametrize("key", ["free_rank", "torsion", "circle_rank", "real_rank", "complex_torus_dim",
                                     "exactness"])
    def test_missing_key_refused(self, key):
        raw = descriptor_to_json(GroupDescriptor(free_rank=1, torsion=(2,)))
        del raw[key]
        assert key in descriptor_schema_error(raw).message

    @pytest.mark.parametrize("key, value", [("free_rank", "two"), ("circle_rank", 1.5), ("real_rank", None),
                                            ("torsion", [2, "x"]), ("complex_torus_dim", True)])
    def test_non_integer_count_refused(self, key, value):
        raw = dict(descriptor_to_json(GroupDescriptor(free_rank=1)), **{key: value})
        assert descriptor_schema_error(raw).absolute_path[0] == key

    def test_torsion_not_a_chain_refused(self):
        with pytest.raises(CalcError, match="not a divisibility chain"):
            GroupDescriptor(free_rank=1, torsion=(4, 6))

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
        schema = json.loads(SCHEMA.read_text())
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

    def test_point_table_formats_each_descriptor_once(self, monkeypatch):
        # A 61 x 31 MU grid: table and JSON output are those of formatting
        # every cell on its own, and each distinct descriptor is formatted once.
        from hfcalc import io as hio
        from hfcalc.engine import point_table

        argv = ["point-table", "--theory", "MU", "--n-range", "-30..30", "--p-range", "-15..15"]
        table = point_table(builtin_theory("MU"), (-30, 30), (-15, 15))
        ns, ps = range(-30, 31), range(-15, 16)
        cells = {key: render_descriptor(desc, False) for key, desc in table.items()}
        header = ["n \\ p"] + [str(p) for p in ps]
        widths = [max(len("n \\ p"), *(len(str(n)) for n in ns))]
        widths += [max(len(str(p)), *(len(cells[(n, p)]) for n in ns)) for p in ps]
        lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
        for n in ns:
            row = [str(n).ljust(widths[0])] + [cells[(n, p)].ljust(widths[i + 1]) for i, p in enumerate(ps)]
            lines.append("  ".join(row).rstrip())
        want_json = {
            "command": "point-table", "theory": "MU", "n_range": [-30, 30], "p_range": [-15, 15],
            "cells": [{"n": n, "p": p, "descriptor": descriptor_to_json(table[(n, p)])} for n in ns for p in ps],
        }
        calls = []
        for name in ("render_descriptor", "descriptor_to_json"):
            real = getattr(hio, name)
            monkeypatch.setattr(hio, name, lambda desc, *rest, real=real: calls.append(desc) or real(desc, *rest))
        distinct = len({id(desc) for desc in table.values()})
        assert distinct < len(table)
        assert run_cli(*argv) == (0, "\n".join(lines) + "\n")
        assert len(calls) == distinct
        calls.clear()
        assert run_cli(*argv, "--format", "json") == (0, json.dumps(want_json, sort_keys=True, indent=2) + "\n")
        assert len(calls) == distinct

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
    "complex_dim_1_0": (_edited(ELLIPTIC_DOC, ("complex_dim",), "1_0"), None, ["compute"]),
    "hodge_arabic_digit": (_edited(ELLIPTIC_DOC, ("hodge", "1,1"), "\u0661"), None, ["compute"]),
    "hodge_key_plus": (_edited(ELLIPTIC_DOC, ("hodge", "+1,1"), 1), None, ["compute"]),
    "theory_rank_spaced": (None, {"name": "t", "ranks": {"0": " 7 "}}, ["compute"]),
    "aj_multiplicity_1_0": (None, None, AJ_TWO_TORSION + ['[[["1", "0"], "1_0"], ["inf", -10]]']),
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

    @pytest.mark.parametrize(
        "doc, message",
        [
            # The lattice inside F^2 H^2 must lie inside F^1 H^2; loaded, this
            # answered HZ_D^2(1) = 0 but HZ_D^2(2) = Z.
            ({"kind": "quasiprojective", "betti_rank": {"0": 1, "2": 1}, "filt_dim": {"1,2": 1, "2,2": 1},
              "lattice_in_f": {"2,2": 1}}, "lattice rank 1 at (p=2, n=2) exceeds the rank 0 at (p=1, n=2)"),
            ({"kind": "quasiprojective", "betti_rank": {"0": 1}, "hodge_class_rank": {"0": -3}},
             "hodge_class_rank(0) = -3 outside [0, lattice rank in F^0H^0 = 1]"),
        ],
        ids=["lattice-increasing-in-p", "negative-hodge-class-rank"],
    )
    def test_quasiprojective_tables_refused(self, doc, message, tmp_path, capsys):
        with pytest.raises(ModelError, match=re.escape(message)):
            parse_space(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, _ = run_cli("compute", "--space", str(path), "--theory", "HZ", "--n", "2", "--p", "1")
        err = capsys.readouterr().err
        assert code == 1 and "Traceback" not in err
        assert len(err.splitlines()) == 1 and message in err, err

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


# y on y^2 = 4x^3 - 4x at x = 1 + 10^-30, within 10^-30 of the root 1:
# the logarithm translates through the branch point (1, 0) and reads y.
NEAR_ROOT_X = "1.000000000000000000000000000001"
NEAR_ROOT_Y = "2.82842712474619009760337744842156323254184295060911286880001e-15"


KAHLER_CURVE = '{"kind": "kahler", "complex_dim": 1, "betti": {"0": [1, []], "1": [2, []], "2": [1, []]}, %s}'
# P^1 x P^1 with both generators named x, and A^1 with the ring Z[x]/(x^3).
TWO_X = json.dumps(_edited(emit_space(product(projective_space(1), projective_space(1))), ("ring", "generators", 1, 0), "x"))
A1_RING = json.dumps({**emit_space(affine_space(1)), "ring": {"generators": [["x", 2]], "rules": [[3, []]]}})
TRANSFER_P2 = ["check", "transfer", "--space", fixture("p2.json"), "--divisor-class"]
COMPUTE = ["--theory", "HZ", "--n", "0", "--p", "0"]
AJ = ["aj", "--g2", "4", "--g3", "0", "--divisor"]
GROTHENDIECK_P1 = ["check", "grothendieck", "--space", fixture("p1.json")]
# Tables no smooth variety has, which used to load and answer HZ_D^2(1) = 0.
# Q2: F^1 H^2 = H^2, so the whole lattice lies in F^1, yet its rank is 0.
# Q: all of H^2 is gr_F^0, so h^{0,2} = 1, and h^{2,0} = 1 would lie in F^2 H^2 = 0.
Q2 = '{"kind": "quasiprojective", "betti_rank": {"0": 1, "2": 1}, "filt_dim": {"1,2": 1, "2,2": 1}, "lattice_in_f": {}}'
Q = '{"kind": "quasiprojective", "betti_rank": {"0": 1, "2": 1}, "filt_dim": {}, "lattice_in_f": {}}'
QUASI = '{"kind": "quasiprojective", "betti_rank": {%s}}'
# compute on P^1; argparse reads each repeat of a flag and keeps the last.
P1_COMPUTE = ["compute", "--space", fixture("p1.json"), "--theory", "HZ", "--n", "0", "--p", "0"]
POINT_TABLE = ["point-table", "--theory", "MU", "--n-range"]


def _refused_space(text: str, message: str) -> tuple:
    """A space document that compute refuses on loading, with exit code 1."""
    return {"s": text}, ["compute", "--space", "{s}", *COMPUTE], 1, message


# Refusals of outside input: name -> (documents written to files, argv with
# {name} for a document's path, exit code, a fragment of the one stderr line).
REFUSALS = {
    "space_not_an_object": _refused_space("[1, 2]", "space document must be a JSON object"),
    "table_not_an_object": _refused_space(KAHLER_CURVE % '"hodge": [1]', "hodge: expected an object, got list"),
    "pair_key": _refused_space(KAHLER_CURVE % '"hodge": {"1": 1}', "hodge: key '1' is not of the form 'a,b'"),
    "betti_entry": _refused_space(KAHLER_CURVE.replace('"0": [1, []]', '"0": [1, 2]') % '"hodge": {}',
                                  "betti[0]: expected [free_rank, [torsion...]]"),
    "betti_entry_newline_key": _refused_space(KAHLER_CURVE.replace('"0": [1, []]', '"0\\n": 5') % '"hodge": {}',
                                              "betti[0\\n]: expected [free_rank, [torsion...]]"),
    "betti_torsion": _refused_space(KAHLER_CURVE.replace('"0": [1, []]', '"0": [1, [0]]') % '"hodge": {}',
                                    "betti[0]: zero is not a torsion order"),
    "ring_presentation": _refused_space(KAHLER_CURVE % '"ring": {"generators": 5}', "ring presentation: "),
    # P^1's tables with its Hodge classes erased: H^0 and H^2 have types (0,0)
    # and (1,1) alone, so every class there is a Hodge class.
    "hodge_classes_erased": _refused_space(
        '{"kind": "kahler", "complex_dim": 1, "betti": {"0": [1, []], "2": [1, []]}, "hodge": {"0,0": 1, "1,1": 1},'
        ' "hodge_class_rank": {}}',
        "H^0 has type (0,0) alone, so every class is a Hodge class: hodge_class_rank(0) = 0, b_0 = 1"),
    "expression_not_a_list": _refused_space('{"kind": "construct", "expr": "P2"}',
                                            "constructor expression must be a list starting with a name: 'P2'"),
    "leaf_arity": _refused_space('{"kind": "construct", "expr": ["curve"]}', "curve takes 1 argument(s), got 0"),
    "product_arity": _refused_space('{"kind": "construct", "expr": ["product", ["point"]]}',
                                    "product takes two sub-expressions"),
    "product_of_gm": _refused_space('{"kind": "construct", "expr": ["product", ["gm"], ["point"]]}',
                                    "product requires two kahler models"),
    "bundle_arity": _refused_space('{"kind": "construct", "expr": ["projective_bundle", ["point"]]}',
                                   "projective_bundle takes a base expression and a rank"),
    "theory_not_an_object": ({"t": "[1]"}, [*P1_COMPUTE, "--theory", "{t}"], 1, "theory document must be a JSON object"),
    "theory_invalid_json": ({"t": "{"}, [*P1_COMPUTE, "--theory", "{t}"], 1, "is not valid JSON"),
    "unreadable_space": ({}, ["compute", "--space", "{missing}", *COMPUTE], 1, "cannot read space file"),
    "range_shape": ({}, [*POINT_TABLE, "0", "--p-range", "0..1"], 1, "range '0' must look like A..B"),
    "range_endpoints": ({}, [*POINT_TABLE, "a..b", "--p-range", "0..1"], 1, "range 'a..b' must have integer endpoints"),
    "range_empty": ({}, [*POINT_TABLE, "3..1", "--p-range", "0..1"], 1, "range '3..1' is empty"),
    "negative_unknown_generator": ({}, ["check", "transfer", "--space", fixture("p2.json"), "--divisor-class=-y"],
                                   1, "unknown generator 'y' in ring element '-y'"),
    # Ring element texts the reader once took as other elements: x - 1,
    # 3 - x, x + 2 and x.
    "element_signed_power": ({}, [*TRANSFER_P2, "x^-1"], 1, "ring element exponent: '' is not an integer"),
    "element_signed_factor": ({}, [*TRANSFER_P2, "3*-x"], 1, "ring element '3*-x': '' is not an integer or a generator"),
    "element_plus_power": ({}, [*TRANSFER_P2, "x^+2"], 1, "ring element exponent: '' is not an integer"),
    "element_trailing_star": ({}, [*TRANSFER_P2, "x*"], 1, "ring element 'x*': '' is not an integer or a generator"),
    "duplicate_generator": _refused_space(TWO_X, "generator name 'x' appears twice"),
    "quasi_ring_dimensions": ({"s": A1_RING}, ["check", "transfer", "--space", "{s}", "--divisor-class", "x"], 1,
                              "A1: ring presentation has dimension 1 in degree 2, Betti rank is 0"),
    "transfer_without_ring": ({}, ["check", "transfer", "--space", fixture("gm.json"), "--divisor-class", "x"], 1,
                              "Gm carries no ring presentation"),
    "grothendieck_without_ring": ({}, ["check", "grothendieck", "--space", fixture("gm.json"), "--chern", "x"], 1,
                                  "Gm carries no ring presentation"),
    "grothendieck_without_ring_or_chern": ({}, ["check", "grothendieck", "--space", fixture("gm.json")], 1,
                                           "Gm carries no ring presentation"),
    "divisor_invalid_json": ({}, [*AJ, "[["], 1, "divisor is not valid JSON"),
    "divisor_not_a_list": ({}, [*AJ, "{}"], 1, "divisor must be a JSON list of [point, multiplicity]"),
    "divisor_entry": ({}, [*AJ, "[1]"], 1, "divisor entry 1 must be [point, multiplicity]"),
    "divisor_point": ({}, [*AJ, "[[5, 1]]"], 1, "divisor point 5 must be [x, y] or \"inf\""),
    "kahler_without_dim": _refused_space('{"kind": "kahler", "betti": {"0": [1, []]}, "hodge": {"0,0": 1}}',
                                         "kahler document: complex_dim is missing"),
    "kahler_betti_degree": _refused_space(KAHLER_CURVE.replace('"2": [1, []]', '"3": [1, []]') % '"hodge": {}',
                                          "Betti group in degree 3 outside [0, 2]"),
    "hodge_outside_square": _refused_space(KAHLER_CURVE % '"hodge": {"0,0": 1, "1,0": 1, "0,1": 1, "2,0": 1, "0,2": 1}',
                                           "h^{0,2} nonzero outside [0, 1]^2"),
    "hodge_negative": _refused_space(KAHLER_CURVE % '"hodge": {"0,0": 1, "1,0": -1, "0,1": -1, "1,1": 1}',
                                     "negative Hodge number h^{0,1}"),
    "quasi_negative_degree": _refused_space(QUASI % '"0": 1, "-2": 1', "cohomology in negative degree -2"),
    "quasi_negative_betti": _refused_space(QUASI % '"0": 1, "2": -1', "negative Betti rank in degree 2"),
    "quasi_lattice_short_of_h2": _refused_space(Q2, "space: F^1H^2 = H^2, yet its lattice rank is 0, not b_2 = 1"),
    "quasi_gr0_without_mirror": _refused_space(Q, "space: codim F^1H^2 = 1 exceeds dim F^2H^2 = 0"),
    "ring_power_zero": _refused_space(json.dumps(_edited(P1_DOC, ("ring", "rules", 0, 0), 0)), "rule powers must be >= 1"),
    "theory_unknown_field": ({"t": '{"ranks": {"0": 1}, "field": "complex"}'}, [*P1_COMPUTE, "--theory", "{t}"], 1,
                             "unknown ring field 'complex'"),
    "point_table_grid": ({}, [*POINT_TABLE, "-1000..1000", "--p-range", "-1000..1000"], 1,
                         "point table of 4004001 cells exceeds the limit of 100000"),
    "grothendieck_rank_zero": ({}, [*GROTHENDIECK_P1, "--r", "0"], 1, "bundle rank must be >= 1"),
    "grothendieck_chern_past_rank": ({}, [*GROTHENDIECK_P1, "--r", "1", "--chern", "x;x^2"], 1,
                                     "at most 1 Chern classes for a rank-1 bundle"),
    # Integers are an optional - and ASCII digits; a flag exits 2, a range 1.
    "flag_underscore": ({}, [*P1_COMPUTE, "--n", "1_0"], 2, "argument --n: '1_0' is not an integer"),
    "flag_arabic_digit": ({}, [*P1_COMPUTE, "--p", "\u0663"], 2, "argument --p: '\u0663' is not an integer"),
    "flag_plus_sign": ({}, [*GROTHENDIECK_P1, "--r", "+2"], 2, "argument --r: '+2' is not an integer"),
    "range_underscore": ({}, [*POINT_TABLE, "0..1_0", "--p-range", "0..1"], 1, "range '0..1_0' must have integer endpoints"),
    "range_spaced": ({}, [*POINT_TABLE, "0.. 1", "--p-range", "0..1"], 1, "range '0.. 1' must have integer endpoints"),
    # A table key is two integers of the same grammar joined by a comma; a
    # negative one reads, and the model refuses it.
    "pair_key_plus_sign": _refused_space(KAHLER_CURVE % '"hodge": {"+1,2": 1}', "hodge[+1,2]: '+1' is not an integer"),
    "pair_key_spaced": _refused_space(KAHLER_CURVE % '"hodge": {" 1,2": 1}', "hodge[ 1,2]: ' 1' is not an integer"),
    "pair_key_underscore": _refused_space(KAHLER_CURVE % '"hodge": {"1_0,2": 1}', "hodge[1_0,2]: '1_0' is not an integer"),
    "pair_key_arabic_digit": _refused_space(KAHLER_CURVE % '"hodge": {"\u0661,2": 1}',
                                            "hodge[\u0661,2]: '\u0661' is not an integer"),
    "pair_key_three_parts": _refused_space(KAHLER_CURVE % '"hodge": {"1,2,3": 1}', "hodge: key '1,2,3' is not of the form 'a,b'"),
    # A refusal quotes at most 40 characters of a key or value, unprintable ones escaped.
    "pair_key_past_int_length": _refused_space(KAHLER_CURVE % f'"hodge": {{"{"1" * 5000},2": 1}}',
                                               f"hodge[{'1' * 40}... (5002 characters)]: '{'1' * 40}'..."
                                               " (5000 characters) is not an integer"),
    "pair_key_newline": _refused_space('{"kind": "quasiprojective", "betti_rank": {"0": 1, "2": 1}, "filt_dim": {"1,2\\n": 1}}',
                                       "filt_dim[1,2\\n]: '2\\n' is not an integer"),
    "pair_key_negative": _refused_space(
        '{"kind": "quasiprojective", "betti_rank": {"0": 1, "2": 1}, "filt_dim": {"-1,-2": 1}}',
        "space: filtration entry at (p=-1, n=-2) outside the windows"),
    "missing_flag": ({}, ["compute", "--space", fixture("p1.json")], 2, "the following arguments are required"),
    "check_missing_flag": ({}, ["check", "transfer", "--space", fixture("p2.json")], 2,
                           "check transfer requires --divisor-class"),
}


class TestRefusals:
    @pytest.mark.parametrize("name", sorted(REFUSALS))
    def test_refused(self, name, tmp_path):
        # Each refusal exits with its documented code and says why on one
        # stderr line (a usage error's line follows argparse's usage text).
        docs, argv, code, message = REFUSALS[name]
        paths = {"{missing}": str(tmp_path / "missing.json")}
        for key, text in docs.items():
            paths[f"{{{key}}}"] = str(tmp_path / f"{key}.json")
            (tmp_path / f"{key}.json").write_text(text)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            try:
                got = run([paths.get(arg, arg) for arg in argv], out=io.StringIO())
            except SystemExit as exc:
                got = exc.code
        lines = err.getvalue().splitlines()
        assert got == code, lines
        assert "Traceback" not in err.getvalue()
        assert message in lines[-1]
        if code == 1:
            assert len(lines) == 1, lines

    def test_aj_precision_below_ten_digits(self, monkeypatch, capsys):
        monkeypatch.setenv("HFCALC_AJ_PRECISION", "5")
        code, _ = run_cli(*AJ, "[]")
        lines = capsys.readouterr().err.splitlines()
        assert code == 1 and lines == ["working precision below 10 digits is not supported"], lines

    def test_rank_level_cell_in_a_table(self, tmp_path):
        # The table form flags a rank-level cell, which no golden shows.
        path = tmp_path / "ee.json"
        path.write_text(json.dumps({"kind": "construct", "expr": ["product", ["curve", 1], ["curve", 1]]}))
        code, out = run_cli("compute", "--space", str(path), "--theory", "HZ", "--n", "3", "--p", "1", "--ascii")
        assert code == 0
        assert out.splitlines()[3:] == ["group: Z^4 + T^2 {rank-level}", "exactness: rank-level"]


class TestRingElements:
    """The element reader: a sign starts each term, ``*`` joins factors, and
    a factor is a nonnegative integer or a generator with an optional power."""

    RING = product(projective_space(2), projective_space(2)).ring  # generators x, x_1

    @pytest.mark.parametrize("text, terms", [
        ("2*x^2*x_1 - 3*x", {(2, 1): 2, (1, 0): -3}),
        ("-x", {(1, 0): -1}),
        ("+x - x_1 + 0", {(1, 0): 1, (0, 1): -1}),
        (" x ^ 2 * 3 ", {(2, 0): 3}),
        ("x^3", {}),
        ("x*x*x_1^0", {(2, 0): 1}),
        ("", {}),
    ])
    def test_accepted(self, text, terms):
        assert parse_ring_element(self.RING, text) == terms

    @pytest.mark.parametrize("text", [
        "x^-1", "3*-x", "x^+2", "x*", "x^", "*x", "x**2", "x+-x_1", "x--x", "-", "x-", "x^2^2", "2x", "y", "x^abc",
        "\u00b2*x", "9" * 5000 + "*x",
    ])
    def test_refused(self, text):
        with pytest.raises(ParseError):
            parse_ring_element(self.RING, text)


class TestExponentsFarApart:
    """Coefficients and coordinates enter as integers sized by their own
    magnitude, so exponents 10^8 apart cost what any others do; integers
    spanning that gap would hold hundreds of millions of bits."""

    @pytest.mark.parametrize(
        "g2, g3, divisor, code",
        [
            ("1e100000000", "1e-100000000", "[]", 0),
            ("1+1e-100000000j", "0", "[]", 0),
            ("4", "0", json.dumps([[[NEAR_ROOT_X, NEAR_ROOT_Y + "+1e-100000000j"], 1], ["inf", -1]]), 0),
            ("4", "0", '[[["1e1000000000", "2e1500000000"], 1], ["inf", -1]]', 1),
            # roots far below 1, chopped on the curve's size, not read as 0
            ("1e-160", "1e-240", '[["inf", 0]]', 0),
            ("4e-160", "0", '[["inf", 0]]', 0),
        ],
        ids=["coefficients", "coefficient_parts", "y_parts_near_a_root", "x_past_the_pole_tolerance", "small_curve",
             "small_curve_g3_zero"],
    )
    def test_aj_process(self, g2, g3, divisor, code):
        start = time.perf_counter()
        got, err = run_cli_process("aj", "--g2", g2, "--g3", g3, "--divisor", divisor)
        assert time.perf_counter() - start < 10
        assert got == code and "Traceback" not in err, err
        if code:
            assert "wp evaluated at a lattice point" in err

    def test_aj_value_keeps_the_dominant_parts(self):
        # A part 10^8 orders below its number's size truncates to 0.
        def value(y):
            divisor = json.dumps([[[NEAR_ROOT_X, y], 1], ["inf", -1]])
            code, out = run_cli("aj", "--g2", "4", "--g3", "0", "--divisor", divisor, "--format", "json")
            assert code == 0
            return json.loads(out)

        assert value(NEAR_ROOT_Y + "+1e-100000000j") == value(NEAR_ROOT_Y)


def curve_products(k: int) -> list:
    """A balanced tree of products of k elliptic curves, dimension k."""
    return ["curve", 1] if k == 1 else ["product", curve_products(k // 2), curve_products(k - k // 2)]


# Documents just past a size limit (hfcalc.io), each with the message of its
# one stderr line, and the same documents at the limit.
# All of H^240 lies in F^240, as on Gm^240: a table a smooth variety can have.
H240 = {f"{p},240": 1 for p in range(1, 241)}
QUASI_TOP = {"kind": "quasiprojective", "betti_rank": {"0": 1, "240": 1}, "filt_dim": H240, "lattice_in_f": H240,
             "hodge_class_rank": {}}
# Z[h_1, ..., h_21]/(h_i^2): 2^21 basis monomials, which the model's check would enumerate.
WIDE_RING = {"generators": [[f"h{i}", 2] for i in range(21)], "rules": [[2, []] for _i in range(21)]}
OVER_LIMIT = {
    "projective_space": ({"kind": "construct", "expr": ["projective_space", 1001]}, "projective_space dimension 1001"),
    "affine_space": ({"kind": "construct", "expr": ["affine_space", 1001]}, "affine_space dimension 1001"),
    "product": (
        {"kind": "construct", "expr": ["product", ["projective_space", 600], ["projective_space", 401]]},
        "product dimension 1001",
    ),
    "kahler_bundle": (
        {"kind": "construct", "expr": ["projective_bundle", ["curve", 80], 1001]},
        "projective_bundle dimension 1001",
    ),
    "quasi_bundle": ({"kind": "construct", "expr": ["projective_bundle", ["gm"], 121]}, "projective_bundle top degree 241"),
    "nested_quasi_bundle": (
        {"kind": "construct", "expr": ["projective_bundle", ["projective_bundle", ["gm"], 100], 100]},
        "projective_bundle top degree 397",
    ),
    "kahler_tables": (_edited(ELLIPTIC_DOC, ("complex_dim",), 1001), "complex_dim 1001"),
    "quasi_tables": (_edited(QUASI_TOP, ("betti_rank", "242"), 1), "quasi-projective degree 242"),
    "quasi_hodge_class": (_edited(QUASI_TOP, ("hodge_class_rank", "121"), 0), "quasi-projective degree 242"),
    # Dimension 128 and 64: the tables and rings, not the dimension, cost.
    "curve_products": ({"kind": "construct", "expr": curve_products(128)}, "table terms"),
    "product_rings": (
        {"kind": "construct", "expr": ["product", ["projective_space", 500], ["projective_space", 500]]},
        "table terms 1004004",
    ),
    "bundle_ring": (
        {"kind": "construct",
         "expr": ["projective_bundle", ["product", ["projective_space", 100], ["projective_space", 100]], 99]},
        "table terms 1110400",
    ),
    "kahler_ring": (_edited(ELLIPTIC_DOC, ("ring",), WIDE_RING), "ring basis 2097152"),
}
AT_LIMIT = {
    "projective_space": ["projective_space", 1000],
    "product": ["product", ["projective_space", 999], ["projective_space", 1]],
    "product_rings": ["product", ["projective_space", 400], ["projective_space", 400]],
    "curve_products": curve_products(48),
    "kahler_bundle": ["projective_bundle", ["curve", 80], 1000],
    "quasi_bundle": ["projective_bundle", ["gm"], 120],
}


class TestSizeLimits:
    """Hostile sizes end in one line on stderr and exit 1, before the model
    is built; every size the tests, fixtures and benchmark use is admitted."""

    @pytest.mark.parametrize("name", sorted(OVER_LIMIT))
    def test_space_over_the_limit(self, name, tmp_path, capsys):
        doc, message = OVER_LIMIT[name]
        path = tmp_path / "space.json"
        path.write_text(json.dumps(doc))
        code, _ = run_cli("compute", "--space", str(path), "--theory", "HZ", "--n", "0", "--p", "0")
        err = capsys.readouterr().err
        assert (code, err.count("\n")) == (1, 1), err
        assert message in err and "exceeds the limit" in err
        with pytest.raises(ParseError, match="exceeds the limit"):
            parse_space(doc)

    @pytest.mark.parametrize("name", ["nested_quasi_bundle", "curve_products", "bundle_ring"])
    def test_space_over_the_limit_process(self, name, tmp_path):
        # P(P(Gm, 100), 100) itself would take seconds, 128 curves' products
        # 8 s and P(P^100 x P^100, 99) a second: the process exits first.
        path = tmp_path / "space.json"
        path.write_text(json.dumps(OVER_LIMIT[name][0]))
        start = time.perf_counter()
        code, err = run_cli_process("compute", "--space", str(path), "--theory", "HZ", "--n", "0", "--p", "0")
        assert (code, err.count("\n")) == (1, 1) and "Traceback" not in err, err
        assert time.perf_counter() - start < 10

    @pytest.mark.parametrize("name", sorted(AT_LIMIT))
    def test_space_at_the_limit(self, name):
        parse_space({"kind": "construct", "expr": AT_LIMIT[name]})

    def test_quasi_tables_at_the_limit(self):
        assert parse_space(QUASI_TOP).max_degree == 240

    def test_quasi_bundle_terms_count_pieces(self):
        # A rank-r bundle over a quasi-projective base costs r shifts of the
        # base's Betti ranks, graded pieces and Hodge-class ranks.  Gm: 2 + 4 + 1.
        # P(Gm, 60): 120 degrees, each with one filtration and one lattice piece
        # at a >= 0, and 60 Hodge-class ranks (its windows held 7,200 entries).
        assert check_bundle(gm(), 60) == 60 * 7
        assert check_bundle(projective_bundle(gm(), 60), 60, 420) == 420 + 60 * (120 + 240 + 60)

    def test_theory_degree(self, tmp_path, capsys):
        path = tmp_path / "theory.json"
        path.write_text(json.dumps({"name": "far", "ranks": {"0": 1, "-1001": 1}}))
        code, _ = run_cli("compute", "--space", fixture("p1.json"), "--theory", str(path), "--n", "0", "--p", "0")
        err = capsys.readouterr().err
        assert (code, err.count("\n")) == (1, 1), err
        assert "theory degree 1001 exceeds the limit of 1000" in err
        path.write_text(json.dumps({"name": "far", "ranks": {"0": 1, "1000": 1, "-1000": 1}}))
        assert load_theory_argument(str(path)).name == "far"

    @pytest.mark.parametrize("argv, message", [
        (["compute", "--space", fixture("p2.json"), "--theory", "MU", "--n", "-200000", "--p", "0"],
         "partition degree 100000 exceeds the limit of 10000"),
        (["check", "pbf", "--space", fixture("p2.json"), "--theory", "HZ", "--r", "1000000", "--n", "2", "--p", "1"],
         "projective_bundle dimension 1000001 exceeds the limit of 1000"),
        (["check", "pbf", "--space", fixture("p2.json"), "--theory", "HZ", "--r", "1000", "--n", "2", "--p", "1"],
         "projective_bundle dimension 1001 exceeds the limit of 1000"),
    ], ids=["mu_degree", "pbf_rank", "pbf_rank_past_the_limit"])
    def test_hostile_flag(self, argv, message, capsys):
        # The first two ran 8.8 s and 17.9 s and printed a result.
        start = time.perf_counter()
        code, _ = run_cli(*argv)
        assert time.perf_counter() - start < 1
        err = capsys.readouterr().err
        assert (code, err.count("\n")) == (1, 1) and message in err, err

    def test_hostile_flag_process(self):
        code, err = run_cli_process("compute", "--space", fixture("p2.json"), "--theory", "MU", "--n", "-200000", "--p", "0")
        assert (code, err.count("\n")) == (1, 1) and "Traceback" not in err, err

    def test_flags_at_the_limit(self):
        # P^2's top class meets pi_{2j}MU at j = 10^4; a rank-999 bundle over
        # P^2 has dimension 1000.  The tests and the benchmark ask far less:
        # p(j) to j = 2000, bundles of rank 4 from the CLI.
        code, out = run_cli("compute", "--space", fixture("p2.json"), "--theory", "MU", "--n", str(4 - 2 * 10 ** 4),
                            "--p", str(-10 ** 4), "--format", "json")
        assert code == 0
        assert json.loads(out)["descriptor"]["free_rank"] == sum(partition_count(10 ** 4 - k) for k in range(3))
        code, out = run_cli("check", "pbf", "--space", fixture("p2.json"), "--theory", "HZ", "--r", "999",
                            "--n", "2", "--p", "1")
        assert code == 0 and out.startswith("OK check pbf")

    def test_benchmark_sizes_admitted(self):
        # The largest documents the benchmark parses: P^400, genus 80,
        # P^40 x P^20, rank-30 bundles, and explicit tables of P^200 and of
        # P^40 x P^2 as a quasi-projective model.
        for expr in (["projective_space", 400], ["curve", 80], ["product", ["projective_space", 40], ["projective_space", 20]],
                     ["projective_bundle", ["gm"], 30], ["projective_bundle", ["affine_space", 5], 30],
                     ["projective_bundle", ["product", ["curve", 6], ["curve", 6]], 24]):
            parse_space({"kind": "construct", "expr": expr})
        assert parse_space(emit_space(projective_space(200))).dim == 200
        quasi = as_quasiproj(product(projective_space(40), projective_space(2)))
        assert parse_space(emit_space(quasi)).max_degree == 84


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
    reduce = EllipticCurve._reduce

    def spy(self, z):
        calls.append(z)
        return reduce(self, z)

    digits, argv = AJ_GOLDEN_COMMANDS[name]
    monkeypatch.setenv("HFCALC_AJ_PRECISION", str(digits))
    monkeypatch.setattr(EllipticCurve, "_reduce", spy)
    code, _ = run_cli(*argv)
    assert code == 0
    assert len(calls) == 1


def _hfcalc_imports(*argv: str) -> set:
    """The hfcalc modules a ``python -X importtime`` process with ``argv`` imports."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env.pop("HFCALC_AJ_PRECISION", None)
    proc = subprocess.run([sys.executable, "-X", "importtime", *argv], env=env, capture_output=True, text=True,
                          check=True)
    names = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines() if line.startswith("import time:")}
    return {name for name in names if name.split(".")[0] == "hfcalc"}


# What the Abel-Jacobi path may load: no engine, io, spaces, rings, abelian or coefficients.
AJ_MODULES = {"hfcalc", "hfcalc._elementary", "hfcalc._fixedpoint", "hfcalc._frozen", "hfcalc.errors", "hfcalc.abeljacobi"}


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
    # The aj process and a bare import of the Abel-Jacobi module load none
    # of the model modules.
    # (-m runs hfcalc.cli as __main__, which importtime does not list.)
    aj = _hfcalc_imports("-m", "hfcalc.cli", "aj", "--g2", "4", "--g3", "0", "--divisor", '[["inf", 0]]')
    assert aj == AJ_MODULES, aj
    assert _hfcalc_imports("-c", "import hfcalc.abeljacobi") == AJ_MODULES


def test_package_names_resolve_on_first_use():
    # hfcalc loads its submodules lazily: a star import and every name of
    # __all__ still resolve, each to the object its submodule defines.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    code = (
        "import sys, hfcalc; before = sorted(m for m in sys.modules if m.startswith('hfcalc'));"
        " ns = {}; exec('from hfcalc import *', ns);"
        " import hfcalc.abelian, hfcalc.coefficients, hfcalc.engine, hfcalc.spaces;"
        " homes = [sys.modules['hfcalc.' + hfcalc._HOME[n]] for n in hfcalc.__all__];"
        " print(before); print(all(ns[n] is getattr(h, n) is getattr(hfcalc, n) for n, h in zip(hfcalc.__all__, homes)));"
        " print(len(hfcalc.__all__), sorted(set(hfcalc.__all__) - set(dir(hfcalc))))"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines() == ["['hfcalc']", "True", "23 []"], proc.stdout
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        hfcalc.nope


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
