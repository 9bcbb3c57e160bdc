"""Coefficient rings for truncated series: exact integers or integers mod M."""

from __future__ import annotations

from math import gcd
from typing import NamedTuple


class RingMismatchError(ValueError):
    """Two series over different coefficient rings were combined."""


class NotInvertibleError(ValueError):
    """A constant term is not a unit in its coefficient ring."""


class _Checked:
    """Base of a value type whose fields a NamedTuple declares (its body
    may not define ``__new__``): ``_validate`` runs on every construction,
    through the constructor and through ``_make``, which ``_replace`` calls."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self._validate()
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class _Ring(NamedTuple):
    modulus: int | None = None

    @property
    def is_exact(self) -> bool:
        return self.modulus is None

    def normalize(self, c: int) -> int:
        """Canonical representative of ``c``."""
        if self.modulus is None:
            return c
        return c % self.modulus

    def is_unit(self, c: int) -> bool:
        if self.modulus is None:
            return c in (1, -1)
        return gcd(c, self.modulus) == 1

    def unit_inverse(self, c: int) -> int:
        """Multiplicative inverse of a unit element."""
        if self.modulus is None:
            if c in (1, -1):
                return c
            raise NotInvertibleError(f"{c} is not a unit in the exact integers")
        try:
            return pow(c, -1, self.modulus)
        except ValueError:
            raise NotInvertibleError(
                f"{c} is not a unit modulo {self.modulus}"
            ) from None

    def key(self) -> str:
        """Stable string key, used for caching and reports."""
        return "exact" if self.modulus is None else f"mod{self.modulus}"

    def __str__(self) -> str:
        return "Z" if self.modulus is None else f"Z/{self.modulus}"


class CoefficientRing(_Checked, _Ring):
    """The ring coefficients live in.

    ``modulus is None`` means exact arbitrary-precision integers; otherwise
    elements are canonical representatives in ``[0, modulus)``.
    """

    __slots__ = ()

    def _validate(self) -> None:
        if self.modulus is not None and self.modulus < 2:
            raise ValueError(f"modulus must be >= 2, got {self.modulus}")


EXACT = CoefficientRing()


def Mod(m: int) -> CoefficientRing:
    """The ring of integers modulo ``m`` (``m >= 2``)."""
    return CoefficientRing(m)
