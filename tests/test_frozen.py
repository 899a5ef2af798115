"""Value semantics of the immutable base shared by hfcalc's value types."""

import copy
import pickle

import pytest

from hfcalc._frozen import Frozen
from hfcalc.abelian import FgAbelianGroup, IntMatrix
from hfcalc.abeljacobi import Divisor
from hfcalc.coefficients import CoefficientTheory, custom_theory
from hfcalc.engine import RANK_LEVEL, GroupDescriptor
from hfcalc.errors import EngineError, RingError, TheoryError
from hfcalc.rings import RingModel, polynomial_ring_mod_power
from hfcalc.spaces import KahlerModel, QuasiProjModel, curve, gm

# cls -> (a factory of one value, whether its fields hash, a change that
# __init__ must refuse with this error, or None where it validates nothing)
CASES = {
    IntMatrix: (lambda: IntMatrix(2, 2, (1, 2, 3, 4)), True, {"rows": -1}, ValueError),
    FgAbelianGroup: (lambda: FgAbelianGroup.of(1, [4, 2]), True, {"free_rank": -1}, ValueError),
    CoefficientTheory: (lambda: custom_theory({0: 1, 2: 3}), True, {"kind": "bogus"}, TheoryError),
    GroupDescriptor: (lambda: GroupDescriptor(1, (2,), 2, 0, 1, RANK_LEVEL), True, {"circle_rank": -1}, EngineError),
    RingModel: (lambda: polynomial_ring_mod_power("x", 2, 3), False, {"rules": ()}, RingError),
    KahlerModel: (lambda: curve(1), False, None, None),
    QuasiProjModel: (gm, False, None, None),
    Divisor: (lambda: Divisor.of([((1, 2), 1), (None, -1)]), True, None, None),
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
    make, hashable, bad, error = CASES[cls]
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
    if bad is not None:
        with pytest.raises(error):
            a.replace(**bad)


def test_replace_rebuilds_levels():
    e, c2 = curve(1), curve(2)
    swapped = e.replace(hodge=c2.hodge, betti=c2.betti)
    assert e._levels[1] == [(0, 1), (1, 1)]
    assert swapped._levels[1] == [(0, 2), (1, 2)] and swapped.filtration_dim(1, 1) == 2
