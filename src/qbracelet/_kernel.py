"""Convolution kernels built on Kronecker substitution.

Truncated polynomial products are evaluated by packing coefficients into
fixed-width byte lanes of one big integer and delegating the whole
convolution to CPython's native big-integer multiply (subquadratic, runs
in C).  Lane widths are chosen from an a priori bound on the largest value
any output lane can take, so lanes never overflow into their neighbours.

:func:`conv_mod` serves every modular ring and :func:`conv_exact` the
exact integers.  ``series`` looks both up on this module at every call.
"""

from __future__ import annotations

import sys
from array import array

# Map itemsize -> array typecode; sizes are platform dependent, probe once.
_TYPECODES: dict[int, str] = {}
for _tc in "BHILQ":
    _TYPECODES.setdefault(array(_tc).itemsize, _tc)

_LITTLE = sys.byteorder == "little"


def _lane_bytes(bound: int) -> int:
    """Smallest lane width (bytes) holding values < bound, rounded up to an
    array-module itemsize when possible for C-speed packing."""
    need = (bound.bit_length() + 7) // 8
    for size in (1, 2, 4, 8):
        if need <= size and size in _TYPECODES:
            return size
    return need


def _pack(coeffs: list[int], lane: int) -> int:
    tc = _TYPECODES.get(lane)
    if tc is not None:
        arr = array(tc, coeffs)
        if not _LITTLE:
            arr.byteswap()
        return int.from_bytes(arr.tobytes(), "little")
    return int.from_bytes(
        b"".join(c.to_bytes(lane, "little") for c in coeffs), "little"
    )


def _unpack(value: int, lane: int, count: int) -> list[int]:
    value &= (1 << (8 * lane * count)) - 1
    raw = value.to_bytes(lane * count, "little")
    tc = _TYPECODES.get(lane)
    if tc is not None:
        arr = array(tc)
        arr.frombytes(raw)
        if not _LITTLE:
            arr.byteswap()
        return arr.tolist()
    return [
        int.from_bytes(raw[i * lane : (i + 1) * lane], "little")
        for i in range(count)
    ]


def conv_mod(x: list[int], y: list[int], n_out: int, m: int) -> list[int]:
    """Coefficients 0..n_out of x*y, entries canonical in [0, m).

    Inputs must already be canonical representatives.
    """
    x = x[: n_out + 1]
    y = y[: n_out + 1]
    count = n_out + 1
    terms = min(len(x), len(y))
    # Largest possible lane value: sum of <= terms products of values <= m-1.
    lane = _lane_bytes((m - 1) * (m - 1) * terms + 1)
    prod = _pack(x, lane) * _pack(y, lane)
    return [c % m for c in _unpack(prod, lane, count)]


def conv_exact(x: list[int], y: list[int], n_out: int) -> list[int]:
    """Coefficients 0..n_out of x*y over the exact integers.

    Signed inputs are split into nonnegative parts (four packed products);
    the all-nonnegative case takes the single-product fast path.
    """
    x = x[: n_out + 1]
    y = y[: n_out + 1]
    count = n_out + 1
    mx = max(abs(c) for c in x)
    my = max(abs(c) for c in y)
    if mx == 0 or my == 0:
        return [0] * count
    terms = min(len(x), len(y))
    # Factor 2: lanes of the combined products P = xp*yp + xn*yn (and Q).
    lane = _lane_bytes(2 * mx * my * terms + 1)
    if min(x) >= 0 and min(y) >= 0:
        return _unpack(_pack(x, lane) * _pack(y, lane), lane, count)
    xp = [c if c > 0 else 0 for c in x]
    xn = [-c if c < 0 else 0 for c in x]
    yp = [c if c > 0 else 0 for c in y]
    yn = [-c if c < 0 else 0 for c in y]
    pxp, pxn = _pack(xp, lane), _pack(xn, lane)
    pyp, pyn = _pack(yp, lane), _pack(yn, lane)
    pos = _unpack(pxp * pyp + pxn * pyn, lane, count)
    neg = _unpack(pxp * pyn + pxn * pyp, lane, count)
    return [a - b for a, b in zip(pos, neg)]
