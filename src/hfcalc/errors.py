"""Exception hierarchy shared by all hfcalc modules.

Every domain failure raised by the library derives from :class:`CalcError`,
so callers (in particular the CLI) can distinguish "the mathematics refused"
from genuine bugs.  It also holds ``_int_arg``, the one reader for an
integer from outside the program, so that every command path (the ``aj``
path too, which loads no model module) reads integers the same way.
"""

import operator
from typing import Any


class CalcError(Exception):
    """Base class for all domain errors raised by hfcalc."""


class ModelError(CalcError):
    """A space model violates one of its structural invariants."""


class TheoryError(CalcError):
    """A coefficient theory is malformed or unknown."""


class EngineError(CalcError):
    """An engine query was asked outside its domain of validity."""


class RingError(CalcError):
    """A ring presentation is missing or malformed."""


class CurveError(CalcError):
    """Invalid elliptic-curve data or a point/divisor off the curve."""


class ParseError(CalcError):
    """A space or theory document failed to parse or validate."""


def _int_arg(value: Any, what: str, key: Any = None) -> int:
    """The one reader for an integer from outside the program: a JSON
    integer, an integral number or a numeral string, an optional ``-``
    and ASCII digits.  Anything else (``"abc"``, ``"1_0"``, ``" 7"``,
    ``"+5"``, ``null``, ``1.5``, ``true``) is a ParseError naming ``what``
    (and ``key``), never a silent truncation."""
    if type(value) is int:
        return value
    if isinstance(value, str):
        digits = value[1:] if value[:1] == "-" else value
        if digits.isascii() and digits.isdigit():
            try:
                return int(value)
            except ValueError:  # past the interpreter's limit on numeral length
                pass
    elif isinstance(value, float):
        if value.is_integer():
            return int(value)
    elif not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    where = what if key is None else f"{what}[{key}]"
    raise ParseError(f"{where}: {value!r} is not an integer")
