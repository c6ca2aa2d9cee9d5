"""Finite binary words, bit-packed into Python integers.

A word is stored as (length, bits) with the first letter in the most
significant bit, so comparing the ``bits`` fields of two equal-length words
is exactly lexicographic comparison. Words are immutable and hashable;
lengths of several thousand letters are routine since Python integers are
arbitrary precision.

Display convention: contiguous '0'/'1' characters, no separators.
"""

from __future__ import annotations


class BinaryWord:
    """An immutable word over {0,1}; ``bits`` holds the letters MSB-first.
    Equal to another word with the same length and bits."""

    __slots__ = ("length", "bits")

    length: int
    bits: int

    def __init__(self, length: int, bits: int) -> None:
        if length < 0:
            raise ValueError(f"negative word length {length}")
        if not 0 <= bits < (1 << length):
            raise ValueError(f"bits 0x{bits:x} out of range for length {length}")
        object.__setattr__(self, "length", length)
        object.__setattr__(self, "bits", bits)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.length == other.length and self.bits == other.bits

    def __hash__(self) -> int:
        return hash((self.length, self.bits))

    def __repr__(self) -> str:
        return f"BinaryWord(length={self.length!r}, bits={self.bits!r})"

    @classmethod
    def from_string(cls, text: str) -> "BinaryWord":
        if text and text.strip("01"):
            raise ValueError(f"word must consist of '0'/'1' characters, got {text!r}")
        return cls(len(text), int(text, 2) if text else 0)

    def __str__(self) -> str:
        return format(self.bits, f"0{self.length}b") if self.length else ""

    def __len__(self) -> int:
        return self.length

    def __add__(self, other: "BinaryWord") -> "BinaryWord":
        return BinaryWord(self.length + other.length,
                          (self.bits << other.length) | other.bits)

    def prefix(self, n: int) -> "BinaryWord":
        """The first n letters."""
        if not 0 <= n <= self.length:
            raise ValueError(f"prefix length {n} out of range for word of length {self.length}")
        return BinaryWord(n, self.bits >> (self.length - n))

    def suffix(self, n: int) -> "BinaryWord":
        """The last n letters."""
        if not 0 <= n <= self.length:
            raise ValueError(f"suffix length {n} out of range for word of length {self.length}")
        return BinaryWord(n, self.bits & ((1 << n) - 1))

    def strip_prefix(self, p: "BinaryWord") -> "BinaryWord":
        """Remove the leading copy of p, i.e. the group-notation p^{-1}·self.

        Raises ValueError when p is not actually a prefix (a misapplied
        identity, worth failing loudly on).
        """
        if p.length > self.length or self.prefix(p.length) != p:
            raise ValueError(f"{p} is not a prefix of {self}")
        return self.suffix(self.length - p.length)


def word(text: str) -> BinaryWord:
    """Shorthand constructor from '0'/'1' text."""
    return BinaryWord.from_string(text)

