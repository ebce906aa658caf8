"""The package's one rule for integer arguments."""

import operator


def as_int(value, what, least=None, most=None):
    """``value`` by ``operator.index``, within ``[least, most]`` where given.

    A bool, a non-integer or a value out of range is a ``ValueError`` that
    reads ``"{what}, got {value!r}"``.
    """
    try:
        n = operator.index(None if isinstance(value, bool) else value)
    except TypeError:
        n = None
    if n is None or least is not None and n < least or most is not None and n > most:
        raise ValueError(f"{what}, got {value!r}")
    return n
