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


_BITS = bytes.maketrans(b"01", b"\x00\x01")


def _unpack_bits(value: int, count: int) -> list[int]:
    """Bits 0..count-1 of a nonnegative int below 2^count, lowest first."""
    return list(format(value, f"0{count}b")[::-1].encode().translate(_BITS))


def conv_mod(x: list[int], y: list[int], n_out: int, m: int) -> list[int]:
    """Coefficients 0..n_out of x*y, entries canonical in [0, m).

    Inputs must already be canonical representatives.  A square (x is y)
    is packed once and multiplied by itself, which CPython squares.
    """
    square = x is y
    x = x[: n_out + 1]
    y = x if square else y[: n_out + 1]
    count = n_out + 1
    terms = min(len(x), len(y))
    # Largest possible lane value: sum of <= terms products of values <= m-1.
    lane = _lane_bytes((m - 1) * (m - 1) * terms + 1)
    px = _pack(x, lane)
    py = px if square else _pack(y, lane)
    return [c % m for c in _unpack(px * py, lane, count)]


def _repeat(value: int, lane: int, count: int) -> int:
    """The packed integer with ``value`` in each of ``count`` lanes."""
    return int.from_bytes(value.to_bytes(lane, "little") * count, "little")


def conv_exact(x: list[int], y: list[int], n_out: int) -> list[int]:
    """Coefficients 0..n_out of x*y over the exact integers.

    One packed product for any signs.  Take b at least every |x_i|, |y_j|
    and |output coefficient|.  Each side is packed with b added to every
    lane, and b in each of its lanes is taken off the packed integer again,
    which leaves sum x_i z^i (z the lane base; the integer may be negative).
    Adding b to every output lane before unpacking puts each lane in
    [0, 2b]; b is taken off again after.  A square (x is y) is packed
    once and multiplied by itself.
    """
    square = x is y
    x = x[: n_out + 1]
    y = x if square else y[: n_out + 1]
    count = n_out + 1
    mx = max(map(abs, x))
    my = max(map(abs, y))
    bias = max(mx, my, mx * my * min(len(x), len(y)))
    lane = _lane_bytes(2 * bias + 1)
    px = _pack([c + bias for c in x], lane) - _repeat(bias, lane, len(x))
    py = px if square else _pack([c + bias for c in y], lane) - _repeat(bias, lane, len(y))
    lanes = _unpack(px * py + _repeat(bias, lane, count), lane, count)
    return [c - bias for c in lanes]
