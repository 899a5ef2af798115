"""Hodge filtered cohomology calculator.

A small computer-algebra library for computing Hodge filtered generalized
cohomology groups of spaces presented by cohomological data (Betti ranks,
Hodge numbers, filtration dimensions), together with a numerical
Abel-Jacobi map for elliptic curves.

The main entry points are:

* :mod:`hfcalc.abelian` -- exact integer linear algebra (Smith normal form,
  cokernels, finitely generated abelian groups);
* :mod:`hfcalc.coefficients` -- rationally even coefficient theories;
* :mod:`hfcalc.spaces` -- cohomological models of Kahler and smooth
  quasi-projective varieties;
* :mod:`hfcalc.engine` -- the long-exact-sequence calculator producing
  Lie-group-type descriptors, plus consistency checkers;
* :mod:`hfcalc.abeljacobi` -- period lattices, elliptic logarithms and the
  Abel-Jacobi map of degree-zero divisors;
* :mod:`hfcalc.cli` -- the ``hfcalc`` command line tool.
"""

from hfcalc.abelian import FgAbelianGroup, IntMatrix, cokernel_of, kernel_rank, smith_normal_form
from hfcalc.coefficients import CoefficientTheory, builtin_theory, custom_theory, mu_rank
from hfcalc.engine import GroupDescriptor, e_rank, filtered_dim, hfc_group, hodge_group, jacobian, point_table
from hfcalc.spaces import (
    KahlerModel,
    QuasiProjModel,
    affine_space,
    curve,
    gm,
    point,
    product,
    projective_bundle,
    projective_space,
)

__all__ = [
    "FgAbelianGroup",
    "IntMatrix",
    "smith_normal_form",
    "cokernel_of",
    "kernel_rank",
    "CoefficientTheory",
    "builtin_theory",
    "custom_theory",
    "mu_rank",
    "KahlerModel",
    "QuasiProjModel",
    "point",
    "projective_space",
    "curve",
    "product",
    "projective_bundle",
    "affine_space",
    "gm",
    "GroupDescriptor",
    "e_rank",
    "filtered_dim",
    "jacobian",
    "hodge_group",
    "hfc_group",
    "point_table",
]

__version__ = "0.1.0"
