"""Exception hierarchy shared by all hfcalc modules.

Every domain failure raised by the library derives from :class:`CalcError`,
so callers (in particular the CLI) can distinguish "the mathematics refused"
from genuine bugs.  It also holds ``_int_arg``, the one reader for an
integer from outside the program, so that every command path (the ``aj``
path too, which loads no model module) reads integers the same way, and
``_quoted`` and ``_shown``, through which a refusal quotes outside input on
one bounded line.
"""

import operator
from typing import Any

MAX_QUOTED = 40  # characters of an input that a refusal quotes



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


def _shown(text: str) -> str:
    """``text`` on one bounded line, as a refusal shows a key: unprintable
    characters escaped as ``repr`` escapes them, and past MAX_QUOTED
    characters cut, with a marker giving its length.  Short printable text
    is unchanged."""
    shown = text[:MAX_QUOTED]
    if not shown.isprintable():
        shown = "".join(c if c.isprintable() else repr(c)[1:-1] for c in shown)
    return shown if len(text) <= MAX_QUOTED else f"{shown}... ({len(text)} characters)"


def _quoted(value: Any) -> str:
    """``repr(value)`` on one bounded line, as a refusal quotes an input.  A
    string past MAX_QUOTED characters is cut before it is quoted, so its
    quotes close and the marker gives the string's own length; any other
    value's ``repr`` is shown as ``_shown`` shows a key."""
    if isinstance(value, str):
        return repr(value) if len(value) <= MAX_QUOTED else f"{value[:MAX_QUOTED]!r}... ({len(value)} characters)"
    return _shown(repr(value))


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
    where = what if key is None else f"{what}[{_shown(str(key))}]"
    raise ParseError(f"{where}: {_quoted(value)} is not an integer")
