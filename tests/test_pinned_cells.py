"""Today's answers, pinned: cells that rest on rules no checker tests.

The certification rule (f = 0 off Kahler models, 2q > m on them), the
diagonal torus marker and the lattice rule decide these cells, and the
checkers reuse the engine's own block calculus, so a change to one of those
rules can pass every other test.  The table holds, in HZ and MU, the log
cells of Gm, Gm x curve(1), as_quasiproj(curve(2)), A^2 and P(V^3 -> Gm)
and the analytic cells of an explicit Kahler surface with h^{2,0} = 1 and
hodge_class_rank(1) = h^{1,1} = 20 (where m = 2q and 0 < f < D), for
0 <= n <= top + 2 and 0 <= p <= top / 2 + 2, diagonal cells n = 2p
included.  Row n lists the cells p = 0, 1, ...; a cell reads
free/circle/real, then "t<d>" when it is a complex torus of dimension d
and "?" when it is rank-level.  A change meant to move a cell edits the
table and lists the moved cells in CHANGES.md.
"""

from hfcalc.coefficients import builtin_theory
from hfcalc.engine import hfc_group
from hfcalc.io import parse_space
from hfcalc.spaces import affine_space, as_quasiproj, curve, gm, projective_bundle, quasi_product

KAHLER_SURFACE = {
    "kind": "kahler",
    "name": "K3",
    "complex_dim": 2,
    "betti": {"0": [1, []], "2": [22, []], "4": [1, []]},
    "hodge": {"0,0": 1, "2,0": 1, "1,1": 20, "0,2": 1, "2,2": 1},
    "hodge_class_rank": {"0": 1, "1": 20, "2": 1},
}

PINNED = {
    ("Gm", "HZ"): (
        "1/0/0     0/0/0     0/0/0",
        "1/0/0     1/1/1     0/1/1",
        "0/0/0     0/0/0     0/1/1",
        "0/0/0     0/0/0     0/0/0",
    ),
    ("Gm", "MU"): (
        "1/0/0     0/1/1     0/1/1",
        "1/0/0     1/1/1     0/1/1",
        "0/0/0     0/0/0     0/1/1",
        "0/0/0     0/0/0     0/0/0",
    ),
    ("Gm x curve(1)", "HZ"): (
        "1/0/0     0/0/0     0/0/0     0/0/0",
        "3/0/0     1/1/1     0/1/1     0/1/1",
        "3/0/0     3/2/0?    0/3/3     0/3/3",
        "1/0/0     1/0/0     1/3/1?    0/3/3",
        "0/0/0     0/0/0     0/0/0     0/1/1",
        "0/0/0     0/0/0     0/0/0     0/0/0",
    ),
    ("Gm x curve(1)", "MU"): (
        "4/2/0?    0/5/5     0/5/5     0/5/5",
        "4/0/0     2/4/2?    0/4/4     0/4/4",
        "3/0/0     3/2/0?    0/4/4     0/4/4",
        "1/0/0     1/0/0     1/3/1?    0/3/3",
        "0/0/0     0/0/0     0/0/0     0/1/1",
        "0/0/0     0/0/0     0/0/0     0/0/0",
    ),
    ("as_quasiproj(curve(2))", "HZ"): (
        "1/0/0     0/0/0     0/0/0     0/0/0",
        "4/0/0     0/1/1     0/1/1     0/1/1",
        "1/0/0     1/4/0?    0/4/4     0/4/4",
        "0/0/0     0/0/0     0/1/1     0/1/1",
        "0/0/0     0/0/0     0/0/0     0/0/0",
    ),
    ("as_quasiproj(curve(2))", "MU"): (
        "2/4/0?    0/4/4     0/4/4     0/4/4",
        "4/0/0     0/2/2     0/2/2     0/2/2",
        "1/0/0     1/4/0?    0/4/4     0/4/4",
        "0/0/0     0/0/0     0/1/1     0/1/1",
        "0/0/0     0/0/0     0/0/0     0/0/0",
    ),
    ("A2", "HZ"): (
        "1/0/0     0/0/0     0/0/0",
        "0/0/0     0/1/1     0/1/1",
        "0/0/0     0/0/0     0/0/0",
    ),
    ("A2", "MU"): (
        "1/0/0     0/0/0     0/0/0",
        "0/0/0     0/1/1     0/1/1",
        "0/0/0     0/0/0     0/0/0",
    ),
    ("P(V3 -> Gm)", "HZ"): (
        "1/0/0     0/0/0     0/0/0     0/0/0     0/0/0",
        "1/0/0     1/1/1     0/1/1     0/1/1     0/1/1",
        "1/0/0     1/0/0     0/1/1     0/1/1     0/1/1",
        "1/0/0     1/0/0     1/1/1     0/1/1     0/1/1",
        "1/0/0     1/0/0     1/0/0     0/1/1     0/1/1",
        "1/0/0     1/0/0     1/0/0     1/1/1     0/1/1",
        "0/0/0     0/0/0     0/0/0     0/0/0     0/1/1",
        "0/0/0     0/0/0     0/0/0     0/0/0     0/0/0",
    ),
    ("P(V3 -> Gm)", "MU"): (
        "4/0/0     0/6/6     0/6/6     0/6/6     0/6/6",
        "4/0/0     4/4/4     0/4/4     0/4/4     0/4/4",
        "2/0/0     2/0/0     0/4/4     0/4/4     0/4/4",
        "2/0/0     2/0/0     2/2/2     0/2/2     0/2/2",
        "1/0/0     1/0/0     1/0/0     0/2/2     0/2/2",
        "1/0/0     1/0/0     1/0/0     1/1/1     0/1/1",
        "0/0/0     0/0/0     0/0/0     0/0/0     0/1/1",
        "0/0/0     0/0/0     0/0/0     0/0/0     0/0/0",
    ),
    ("K3", "HZ"): (
        "1/0/0t0   0/0/0     0/0/0     0/0/0     0/0/0",
        "0/0/0     0/1/1     0/1/1     0/1/1     0/1/1",
        "22/0/0    20/0/0t0  0/0/0     0/0/0     0/0/0",
        "0/0/0     0/2/0?    0/22/20   0/22/22   0/22/22",
        "1/0/0     1/0/0     1/0/0t0   0/0/0     0/0/0",
        "0/0/0     0/0/0     0/0/0     0/1/1     0/1/1",
        "0/0/0     0/0/0     0/0/0     0/0/0t0   0/0/0",
    ),
    ("K3", "MU"): (
        "23/0/0t0  0/0/0     0/0/0     0/0/0     0/0/0",
        "0/2/0?    0/25/23   0/25/25   0/25/25   0/25/25",
        "23/0/0    21/0/0t0  0/0/0     0/0/0     0/0/0",
        "0/0/0     0/2/0?    0/23/21   0/23/23   0/23/23",
        "1/0/0     1/0/0     1/0/0t0   0/0/0     0/0/0",
        "0/0/0     0/0/0     0/0/0     0/1/1     0/1/1",
        "0/0/0     0/0/0     0/0/0     0/0/0t0   0/0/0",
    ),
}


def _cell(d) -> str:
    text = f"{d.free_rank}/{d.circle_rank}/{d.real_rank}"
    if d.complex_torus_dim is not None:
        text += f"t{d.complex_torus_dim}"
    return text + ("?" if d.exactness != "exact" else "")


def test_log_and_diagonal_cells():
    models = {
        "Gm": gm(),
        "Gm x curve(1)": quasi_product(gm(), as_quasiproj(curve(1))),
        "as_quasiproj(curve(2))": as_quasiproj(curve(2)),
        "A2": affine_space(2),
        "P(V3 -> Gm)": projective_bundle(gm(), 3),
        "K3": parse_space(KAHLER_SURFACE),
    }
    got = {}
    for name, model in models.items():
        top = model.max_degree
        for theory in ("HZ", "MU"):
            e = builtin_theory(theory)
            got[(name, theory)] = tuple(
                [_cell(hfc_group(model, e, n, p)) for p in range(top // 2 + 3)] for n in range(top + 3)
            )
    assert got == {key: tuple(row.split() for row in rows) for key, rows in PINNED.items()}
