"""Hodge filtered cohomology calculator.

A small computer-algebra library for computing Hodge filtered generalized
cohomology groups of spaces presented by cohomological data (Betti ranks,
Hodge numbers, filtration dimensions), together with a numerical
Abel-Jacobi map for elliptic curves.

The main entry points are:

* :mod:`hfcalc.abelian` -- exact integer linear algebra (Smith normal form,
  finitely generated abelian groups);
* :mod:`hfcalc.coefficients` -- rationally even coefficient theories;
* :mod:`hfcalc.spaces` -- cohomological models of Kahler and smooth
  quasi-projective varieties;
* :mod:`hfcalc.engine` -- the long-exact-sequence calculator producing
  Lie-group-type descriptors, plus consistency checkers;
* :mod:`hfcalc.abeljacobi` -- period lattices, elliptic logarithms and the
  Abel-Jacobi map of degree-zero divisors;
* :mod:`hfcalc.cli` -- the ``hfcalc`` command line tool.

The package loads a submodule on first use (PEP 562): ``import hfcalc``
imports nothing else, ``hfcalc.hfc_group`` loads the engine, and a process
that only maps divisors loads ``hfcalc.abeljacobi`` without the model
modules.
"""

from importlib import import_module

# name -> the submodule that defines it
_HOME = {
    **dict.fromkeys(("FgAbelianGroup", "IntMatrix", "smith_normal_form"), "abelian"),
    **dict.fromkeys(("CoefficientTheory", "builtin_theory", "custom_theory", "mu_rank"), "coefficients"),
    **dict.fromkeys(
        ("KahlerModel", "QuasiProjModel", "point", "projective_space", "curve", "product", "projective_bundle",
         "affine_space", "gm"),
        "spaces",
    ),
    **dict.fromkeys(
        ("GroupDescriptor", "e_rank", "filtered_dim", "jacobian", "hodge_group", "hfc_group", "point_table"), "engine"
    ),
}

__all__ = list(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module 'hfcalc' has no attribute {name!r}")
    value = getattr(import_module(f"hfcalc.{home}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_HOME))
