"""Checked text assembly: plain concatenation and a placeholder formatter.

``format_render`` reads its format text left to right.  ``{}`` consumes the
next argument; ``{`` followed by any other character (or by nothing, at the
end of the text) is emitted literally together with that character.  A
placeholder with no argument left fails with "argument missing"; arguments
left over once the text is exhausted fail with "too many arguments".  There
is no escape for a literal ``{}``.

Each distinct format text is compiled once, by one tokenizing regex, into a
printf-style host text, with every literal ``%`` doubled and every
placeholder written as ``%s``, plus the offsets of its placeholders; a
bounded cache keeps the compiled form.  A format text that is not a ``str``
(or None) is refused with ``ConstraintError``.

Rendering is the host's default text form (``str``), which ``render``
defines; wrapped numbers render as their underlying value.  ``host % args``
calls ``str()`` on each argument in C and never ``format()``, so
``format_render`` does not call ``render`` and patching it changes nothing
there.  The functions build and return text and never touch an output
device; each is pure and thread-safe.
"""

from __future__ import annotations

import functools
import re
from enum import Enum

from .narrowing import ConstraintError

__all__ = ["FormatErrorKind", "FormatError", "render", "print_concat", "format_render"]


class FormatErrorKind(Enum):
    ARGUMENT_MISSING = "argument missing"
    TOO_MANY_ARGUMENTS = "too many arguments"


class FormatError(ValueError):
    """Placeholder count and argument count disagree."""

    def __init__(self, kind: FormatErrorKind, position: int, /) -> None:
        pass  # the arguments are kept in ``args``, as ``NarrowError`` keeps them

    kind = property(lambda self: self.args[0], doc="In which direction the counts disagree.")
    position = property(lambda self: self.args[1], doc="Where in the format text the scan detected it.")

    def __str__(self) -> str:
        return f"{self.kind.value} (format offset {self.position})"


def render(value) -> str:
    """Deterministic text form of a single value."""
    return str(value)


def print_concat(*args) -> str:
    """Concatenation of every argument's rendering, in order."""
    return "".join(render(a) for a in args)


# ``{`` always takes the next character with it, so ``{}`` is a placeholder
# only where the scan reaches its brace; every other token is literal.
_TOKEN = re.compile(r"\{.?", re.DOTALL)


@functools.lru_cache(maxsize=256)
def _compile(fmt: str) -> tuple[str, tuple[int, ...]]:
    """The host ``%`` text of ``fmt`` (``%s`` fields) and its placeholder offsets."""
    literals, slots, done = [], [], 0
    for token in _TOKEN.finditer(fmt):
        if token.group() == "{}":
            literals.append(fmt[done:token.start()])
            slots.append(token.start())
            done = token.end()
    literals.append(fmt[done:])
    return "%s".join(text.replace("%", "%%") for text in literals), tuple(slots)


def format_render(fmt, *args) -> str:
    """Substitute ``args`` for ``{}`` placeholders in ``fmt``.

    ``fmt`` may be None, which renders as empty text (arguments supplied
    alongside it are still too many); any other non-``str`` raises
    ``ConstraintError``.  Raises ``FormatError`` when the placeholder count
    and argument count disagree; succeeds exactly when they match.
    """
    if fmt is None:
        fmt = ""
    elif not isinstance(fmt, str):
        raise ConstraintError(f"format text must be str, not {type(fmt).__name__}")
    host, slots = _compile(fmt)
    if len(args) != len(slots):
        if len(args) < len(slots):
            raise FormatError(FormatErrorKind.ARGUMENT_MISSING, slots[len(args)])
        raise FormatError(FormatErrorKind.TOO_MANY_ARGUMENTS, len(fmt))
    return host % args
