"""Value semantics of the immutable base shared by hfcalc's value types."""

import copy
import pickle

import pytest

from hfcalc._frozen import Frozen
from hfcalc.abelian import FgAbelianGroup, IntMatrix
from hfcalc.abeljacobi import Divisor
from hfcalc.coefficients import CoefficientTheory, custom_theory
from hfcalc.engine import RANK_LEVEL, GroupDescriptor
from hfcalc.errors import CurveError, EngineError, ModelError, RingError, TheoryError
from hfcalc.rings import RingModel, polynomial_ring_mod_power
from hfcalc.spaces import KahlerModel, QuasiProjModel, curve, gm

# cls -> (a factory of one value, whether its fields hash, and the changes
# that __init__ must refuse, each with its error)
CASES = {
    IntMatrix: (lambda: IntMatrix(2, 2, (1, 2, 3, 4)), True, [({"rows": -1}, ValueError)]),
    FgAbelianGroup: (lambda: FgAbelianGroup.of(1, [4, 2]), True, [({"free_rank": -1}, ValueError)]),
    CoefficientTheory: (lambda: custom_theory({0: 1, 2: 3}), True, [
        ({"kind": "bogus"}, TheoryError),
        ({"table": ((0, 1), (2, -3))}, TheoryError),
        ({"table": ((0, 1), (0, 3))}, TheoryError),
    ]),
    GroupDescriptor: (lambda: GroupDescriptor(1, (2,), 2, 0, 1, RANK_LEVEL), True, [({"circle_rank": -1}, EngineError)]),
    RingModel: (lambda: polynomial_ring_mod_power("x", 2, 3), False, [
        ({"rules": ()}, RingError),
        ({"rules": ((3, {(4,): 1}),)}, RingError),
    ]),
    KahlerModel: (lambda: curve(1), False, [({"hodge": curve(2).hodge}, ModelError)]),
    QuasiProjModel: (gm, False, [({"filt": {(1, 1): 5}}, ModelError), ({"betti": {0: 1}}, ModelError)]),
    Divisor: (lambda: Divisor([((1, 2), 1), (None, -1)]), True, [({"entries": (((1, 2), 1.5),)}, CurveError)]),
}


def _twin(value):
    """An instance of another Frozen class with the same fields and values."""
    twin_cls = type("Twin", (Frozen,), {"__slots__": value._fields, "_fields": value._fields})
    twin = object.__new__(twin_cls)
    for name in value._fields:
        object.__setattr__(twin, name, getattr(value, name))
    return twin


@pytest.mark.parametrize("cls", list(CASES), ids=lambda c: c.__name__)
def test_value_semantics(cls):
    make, hashable, refusals = CASES[cls]
    a, b = make(), make()
    assert type(a) is cls and a is not b
    fields = tuple(getattr(a, name) for name in cls._fields)

    assert a == b and not a != b
    if hashable:
        assert hash(a) == hash(b)
    else:
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)
    assert a != fields and a != _twin(a)
    assert repr(a) == f"{cls.__name__}(" + ", ".join(f"{n}={v!r}" for n, v in zip(cls._fields, fields)) + ")"

    assert not hasattr(a, "__dict__")
    for name in (cls._fields[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(a, name, 0)
    with pytest.raises(AttributeError):
        delattr(a, cls._fields[0])

    for clone in (a.replace(), copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(clone) is cls and clone == a and clone is not a
    with pytest.raises(TypeError):
        a.replace(no_such_field=1)
    assert refusals
    for bad, error in refusals:
        with pytest.raises(error):
            a.replace(**bad)


def test_replace_rebuilds_levels():
    e, c2 = curve(1), curve(2)
    swapped = e.replace(hodge=c2.hodge, betti=c2.betti)
    assert e._levels[1] == [(0, 1), (1, 1)]
    assert swapped._levels[1] == [(0, 2), (1, 2)] and swapped.filtration_dim(1, 1) == 2


def test_replace_checks_the_model():
    # Genus 2's Hodge numbers on genus 1's Betti groups: 4 in degree 1
    # against b_1 = 2, which once answered HZ_D^2(1) = Z, "exact".
    with pytest.raises(ModelError, match="degree 1 sum to 4, Betti rank is 2"):
        curve(1).replace(hodge=curve(2).hodge)


def test_divisor_entries_convert():
    # Lists convert to the canonical tuples, so equal divisors compare equal.
    assert Divisor([[[1, 2], 2], [None, -2]]) == Divisor((((1, 2), 2), (None, -2)))
    with pytest.raises(CurveError, match="integer multiplicity"):
        Divisor(((("x", "y"), 1.5),))
