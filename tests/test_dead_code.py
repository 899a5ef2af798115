"""No runtime code without a runtime caller: a pure AST scan of ``src/hfcalc``.

Every module-level function, method and class-level alias (``make =
classmethod(...)``) that no other ``src`` code reaches by name must be on
``ALLOWED`` with a reason that holds; an entry reached, gone or without its
reason fails too.  Outside its own body, a load of ``f``, an import of it or
``x.f`` reaches a function ``f``; ``x.m`` reaches a method ``C.m`` unless
``x`` is another ``src`` class or a module from outside (``mp.zero``).
Dunders are left out.  ``getattr`` dispatch goes unseen (the list absorbs
it), and methods sharing a name are conflated (dead code may pass, live
code never fails).
"""

import ast
import re
from functools import cache
from pathlib import Path

from .test_bench_contract import BENCH, bench_references

ROOT = Path(__file__).resolve().parent.parent

# Definitions no src code calls -> why each stays: "README" (a code span there
# names it), "acceptance" (tests/test_acceptance.py calls it) or "bench" (the
# benchmark calls it; these go once it stops).
ALLOWED = {
    "abelian.smith_normal_form": "README",
    "abeljacobi.complex_agm": "README",
    "abeljacobi.lattice_invariants": "README",
    "abeljacobi.EllipticCurve.elliptic_log": "README",
    "abeljacobi.EllipticCurve.frac_coords": "README",
    "abeljacobi.EllipticCurve.point_at": "README",
    "spaces.as_quasiproj": "README",
    "abeljacobi.Divisor.of": "acceptance",
    "abeljacobi.EllipticCurve.lattice_distance": "acceptance",
    "engine.hodge_group": "acceptance",
    "engine.jacobian": "acceptance",
    "abeljacobi.carlson_rf": "bench",
    "engine.filtered_dim": "bench",
    "rings.RingModel.graded_dimension": "bench",
    "spaces.KahlerModel.make": "bench",
    "spaces.QuasiProjModel.make": "bench",
}


def unreached(sources: dict) -> tuple[set, set]:
    """(every definition, those nothing else reaches) as ``module.name`` or
    ``module.Class.name``, for module name -> source text."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    classes = {node.name for tree in trees.values() for node in tree.body if isinstance(node, ast.ClassDef)}
    defs, refs = [], {}  # refs: name -> [(module, line, receiver class or None, is an attribute)]
    for module, tree in trees.items():
        members = [(node.name, n) for node in tree.body if isinstance(node, ast.ClassDef) for n in node.body]
        for owner, member in [(None, node) for node in tree.body] + members:
            if isinstance(member, ast.FunctionDef):
                names = [member.name]
            elif owner and isinstance(member, ast.Assign) and isinstance(member.value, (ast.Call, ast.Lambda)):
                names = [t.id for t in member.targets if isinstance(t, ast.Name)]
            else:
                continue
            defs += [(".".join(filter(None, (module, owner, name))), name, owner, module, member.lineno,
                      member.end_lineno) for name in names if not (name.startswith("__") and name.endswith("__"))]
        nodes = list(ast.walk(tree))
        outside = {alias.asname or alias.name.split(".")[0]  # mp, json, ...
                   for node in nodes if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names
                   if not (getattr(node, "module", None) or alias.name).startswith("hfcalc")}
        for node in nodes:
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                refs.setdefault(node.id, []).append((module, node.lineno, None, False))
            elif isinstance(node, ast.Attribute) and (receiver := getattr(node.value, "id", None)) not in outside:
                receiver = receiver if receiver in classes else None
                refs.setdefault(node.attr, []).append((module, node.lineno, receiver, True))
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    refs.setdefault(alias.name, []).append((module, node.lineno, None, False))

    def reached(name, owner, module, first, last) -> bool:
        for ref_module, line, receiver, attribute in refs.get(name, ()):
            if ref_module == module and first <= line <= last:
                continue  # its own body is no caller
            function_ref = owner is None and receiver is None  # f, an import of f or module.f
            method_ref = owner is not None and attribute and receiver in (None, owner)  # x.m, x no other class
            if function_ref or method_ref:
                return True
        return False

    return {d[0] for d in defs}, {d[0] for d in defs if not reached(*d[1:])}


@cache
def src_scan() -> tuple[set, set]:
    paths = sorted((ROOT / "src" / "hfcalc").glob("*.py"))
    return unreached({path.stem: path.read_text(encoding="utf-8") for path in paths})


def fence_problems(allowed: dict) -> list[str]:
    defined, uncalled = src_scan()
    return ([f"{name}: no src code calls it; delete it or allow it with its reason"
             for name in sorted(uncalled - allowed.keys())]
            + [f"{name}: allowed, but gone" for name in sorted(allowed.keys() - defined)]
            + [f"{name}: allowed, but src code calls it" for name in sorted(allowed.keys() & defined - uncalled)])


@cache
def reason_sources() -> tuple:
    """The README, tests/test_acceptance.py, and the benchmark's hfcalc references and text."""
    readme, acceptance, *bench = (path.read_text(encoding="utf-8") for path in
                                  (ROOT / "README.md", ROOT / "tests" / "test_acceptance.py", *sorted(BENCH.glob("*.py"))))
    return readme, acceptance, bench_references(), "".join(bench)


def reason_holds(qual: str, reason: str) -> bool:
    readme, acceptance, bench_refs, bench_text = reason_sources()
    name = qual.rsplit(".", 1)[-1]
    if reason == "README":
        return re.search(rf"`[^`\n]*\b{name}\b[^`\n]*`", readme) is not None
    if reason == "acceptance":
        return re.search(rf"\b{name}\(", acceptance) is not None
    # The benchmark reads a module's names through its import; an instance's method is found by its call.
    if reason == "bench":
        return f"hfcalc.{qual}" in bench_refs or re.search(rf"\.{name}\(", bench_text) is not None
    return False


def test_every_uncalled_definition_is_allowed():
    assert fence_problems(ALLOWED) == []


def test_every_allowance_states_a_reason_that_holds():
    assert [qual for qual, reason in ALLOWED.items() if not reason_holds(qual, reason)] == []


def test_a_definition_without_a_caller_fails():
    source = ("def used():\n    return used()\n\ndef caller():\n    return used()\n\n"  # recursion is no caller
              "class A:\n    def m(self):\n        return B.m\n\n    of = classmethod(lambda cls: cls())\n\n"
              "class B:\n    def m(self):\n        return A.of()\n")
    assert unreached({"mod": source}) == ({"mod.used", "mod.caller", "mod.A.m", "mod.A.of", "mod.B.m"},
                                          {"mod.caller", "mod.A.m"})


def test_a_stale_allowance_fails():
    stale = dict(ALLOWED, **{"spaces.product": "README", "rings.poly_add": "bench"})
    assert fence_problems(stale) == ["rings.poly_add: allowed, but gone",
                                     "spaces.product: allowed, but src code calls it"]
    assert not reason_holds("engine.jacobian", "bench") and not reason_holds("spaces.as_quasiproj", "reviewed")
