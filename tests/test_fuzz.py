"""Randomized robustness: engine queries over random constructor trees.

Models built from constructors are always valid, so every descriptor the
engine produces for them must satisfy the descriptor invariants (enforced
in the constructor) and the diagonal bookkeeping.
"""

import random

from hfcalc.coefficients import builtin_theory, custom_theory
from hfcalc.engine import e_rank, filtered_dim, hfc_group, hodge_group, jacobian
from hfcalc.spaces import (
    KahlerModel,
    curve,
    point,
    product,
    projective_bundle,
    projective_space,
)

THEORIES = [
    builtin_theory("MU"),
    builtin_theory("HZ"),
    builtin_theory("HQ"),
    custom_theory({-1: 1, 0: 2, 3: 1}, name="offbeat"),
]


def random_kahler(rng: random.Random, depth: int = 0) -> KahlerModel:
    if depth >= 2 or rng.random() < 0.4:
        return rng.choice(
            [point(), projective_space(1), projective_space(2), curve(1), curve(2)]
        )
    if rng.random() < 0.5:
        return product(random_kahler(rng, depth + 1), random_kahler(rng, depth + 1))
    return projective_bundle(random_kahler(rng, depth + 1), rng.randint(1, 3))


def test_random_models_never_break_the_engine():
    rng = random.Random(424242)
    for _ in range(40):
        model = random_kahler(rng)
        theory = rng.choice(THEORIES)
        for n in range(-4, model.max_degree + 4):
            for p in range(-3, model.dim + 3):
                d = hfc_group(model, theory, n, p)
                assert d.free_rank >= 0 and d.circle_rank >= 0 and d.real_rank >= 0
                assert e_rank(model, theory, n) >= filtered_dim(model, theory, n, p) >= 0


def test_random_models_diagonal_bookkeeping():
    rng = random.Random(31337)
    hz = builtin_theory("HZ")
    mu = builtin_theory("MU")
    for _ in range(25):
        model = random_kahler(rng)
        for theory in (hz, mu):
            for p in range(-2, model.dim + 2):
                d = hfc_group(model, theory, 2 * p, p)
                hdg = hodge_group(model, theory, p)
                jac = jacobian(model, theory, p)
                assert d.free_rank == hdg.free_rank
                assert d.torsion == hdg.torsion
                assert d.circle_rank == jac.circle_rank
                assert d.complex_torus_dim == jac.complex_torus_dim
                assert d.real_rank == 0
                assert d.exactness == "exact"
