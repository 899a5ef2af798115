"""The benchmark's import contract.

Every ``from hfcalc... import name`` in ``bench/*.py``, and every attribute
the benchmark reads through a module imported that way (``spaces.gm``,
``abeljacobi.carlson_rf``, ...), must resolve in the library.  A rename
that forgets the benchmark fails here rather than in a benchmark run.
"""

import ast
import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def dotted(node: ast.AST) -> str | None:
    """``a.b.c`` for a chain of attribute reads on a plain name, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = dotted(node.value)
        return None if base is None else f"{base}.{node.attr}"
    return None


def bench_references() -> set[str]:
    """Dotted hfcalc names the benchmark imports or reads through an import."""
    refs = set()
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        aliases = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "hfcalc":
                for alias in node.names:
                    aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        refs.update(aliases.values())
        for node in ast.walk(tree):
            name = dotted(node) if isinstance(node, ast.Attribute) else None
            head, _, rest = (name or "").partition(".")
            if head in aliases:
                refs.add(f"{aliases[head]}.{rest}")
    return refs


def resolves(name: str) -> bool:
    """Import the longest module prefix of ``name``, then read the rest."""
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def test_every_benchmark_reference_resolves():
    refs = bench_references()
    assert "hfcalc.abeljacobi.carlson_rf" in refs  # the parse found the benchmark's imports
    assert sorted(name for name in refs if not resolves(name)) == []
