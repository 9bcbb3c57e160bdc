"""Dense truncated power series over an exact or modular coefficient ring.

A series of order N stores the coefficients of q^0 .. q^N.  Every operation
is exact on the indices it keeps: truncation only ever discards indices
above the result order, and mixed-order operands truncate to the minimum.
Instances are treated as immutable once constructed and are safe to share
across threads.
"""

from __future__ import annotations

from operator import add, neg, sub
from typing import Iterable

from . import _kernel
from .rings import CoefficientRing, Mod, RingMismatchError


def _conv(ring: CoefficientRing, x: list[int], y: list[int], n_out: int) -> list[int]:
    if ring.modulus is None:
        return _kernel.conv_exact(x, y, n_out)
    return _kernel.conv_mod(x, y, n_out, ring.modulus)


class TruncatedSeries:
    """Coefficient vector c_0..c_N with ring-aware arithmetic."""

    __slots__ = ("ring", "coeffs")

    def __init__(
        self,
        ring: CoefficientRing,
        coeffs: Iterable[int],
        normalize: bool = True,
    ) -> None:
        m = ring.modulus
        cs = [c % m for c in coeffs] if normalize and m is not None else list(coeffs)
        if not cs:
            raise ValueError("a truncated series needs at least the q^0 coefficient")
        self.ring = ring
        self.coeffs = cs

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def zero(cls, ring: CoefficientRing, order: int) -> "TruncatedSeries":
        return cls(ring, [0] * (order + 1), normalize=False)

    @classmethod
    def one(cls, ring: CoefficientRing, order: int) -> "TruncatedSeries":
        cs = [0] * (order + 1)
        cs[0] = 1
        return cls(ring, cs, normalize=False)

    @classmethod
    def monomial(
        cls, ring: CoefficientRing, order: int, exponent: int, coeff: int = 1
    ) -> "TruncatedSeries":
        """The series coeff * q^exponent (zero if exponent > order)."""
        if exponent < 0:
            raise ValueError("monomial exponent must be >= 0")
        cs = [0] * (order + 1)
        if exponent <= order:
            cs[exponent] = ring.normalize(coeff)
        return cls(ring, cs, normalize=False)

    def _require_same_ring(self, other: "TruncatedSeries") -> None:
        if self.ring != other.ring:
            raise RingMismatchError(
                f"cannot combine series over {self.ring} and {other.ring}"
            )

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._require_same_ring(other)
        return TruncatedSeries(self.ring, map(add, self.coeffs, other.coeffs))

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._require_same_ring(other)
        return TruncatedSeries(self.ring, map(sub, self.coeffs, other.coeffs))

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(self.ring, map(neg, self.coeffs))

    def scale(self, c: int) -> "TruncatedSeries":
        """Multiply every coefficient by the ring scalar c."""
        return TruncatedSeries(self.ring, [c * a for a in self.coeffs])

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._require_same_ring(other)
        n_out = min(self.order, other.order)
        cs = _conv(self.ring, self.coeffs, other.coeffs, n_out)
        return TruncatedSeries(self.ring, cs, normalize=False)

    def pow(self, e: int) -> "TruncatedSeries":
        """Integer power by repeated squaring; negative e inverts the result."""
        if e < 0:
            return self.pow(-e).invert()
        if e == 0:
            return TruncatedSeries.one(self.ring, self.order)
        base = self
        while not e & 1:
            base = base * base
            e >>= 1
        result = base
        e >>= 1
        while e:
            base = base * base
            if e & 1:
                result = result * base
            e >>= 1
        return result

    def invert(self) -> "TruncatedSeries":
        """Multiplicative inverse via Newton iteration.

        Requires a unit constant term (+-1 exactly, or coprime to M).  Each
        step doubles the number of correct coefficients, so the total cost
        is a constant number of full-order convolutions.
        """
        ring, m = self.ring, self.ring.modulus
        b = [ring.unit_inverse(self.coeffs[0])]  # canonical; raises NotInvertibleError
        n = self.order
        prec = 1
        while prec <= n:
            prec = min(2 * prec, n + 1)
            xb = _conv(ring, self.coeffs[:prec], b, prec - 1)
            xb[0] -= 2  # t = 2 - x b, negated in one pass
            t = [-c for c in xb] if m is None else [-c % m for c in xb]
            b = _conv(ring, b, t, prec - 1)
        return TruncatedSeries(ring, b, normalize=False)

    def inflate(self, t: int) -> "TruncatedSeries":
        """Substitute q -> q^t; the result has order t * self.order, so no
        coefficient is lost."""
        if t < 1:
            raise ValueError("inflation factor must be >= 1")
        if t == 1:
            return self
        cs = [0] * (t * self.order + 1)
        cs[::t] = self.coeffs
        return TruncatedSeries(self.ring, cs, normalize=False)

    def resized(self, order: int) -> "TruncatedSeries":
        """Copy truncated or zero-extended to the given order.

        Extension fills zeros; that is only sound when the caller knows the
        dropped tail is zero (e.g. plumbing around inflate), since a
        truncated series carries no information beyond its order.
        """
        if order < 0:
            raise ValueError("order must be >= 0")
        if order == self.order:
            return self
        if order < self.order:
            return TruncatedSeries(self.ring, self.coeffs[: order + 1], normalize=False)
        return TruncatedSeries(
            self.ring, self.coeffs + [0] * (order - self.order), normalize=False
        )

    def shift(self, t: int) -> "TruncatedSeries":
        """Multiply by q^t; order is preserved, top t coefficients drop off."""
        if t < 0:
            raise ValueError("shift must be >= 0")
        if t == 0:
            return self
        cs = ([0] * t + self.coeffs)[: self.order + 1]
        return TruncatedSeries(self.ring, cs, normalize=False)

    def reduce_mod(self, m: int) -> "TruncatedSeries":
        """Coefficientwise reduction of an exact series into Z/m."""
        if not self.ring.is_exact:
            raise ValueError("reduce_mod expects a series over the exact integers")
        return TruncatedSeries(Mod(m), self.coeffs)

    def equal_upto(
        self, other: "TruncatedSeries", n: int
    ) -> tuple[bool, int | None]:
        """Compare coefficients 0..n; returns (equal, first mismatch index)."""
        self._require_same_ring(other)
        if n > min(self.order, other.order):
            raise ValueError(
                f"comparison bound {n} exceeds series orders "
                f"({self.order}, {other.order})"
            )
        for i in range(n + 1):
            if self.coeffs[i] != other.coeffs[i]:
                return False, i
        return True, None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.ring == other.ring and self.coeffs == other.coeffs

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        head = ", ".join(str(c) for c in self.coeffs[:8])
        tail = ", ..." if self.order >= 8 else ""
        return f"TruncatedSeries({self.ring}, order={self.order}: [{head}{tail}])"
