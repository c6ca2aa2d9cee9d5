"""The bit layer of finite binary words.

A word of n letters is the int of its bits, the first letter in the most
significant bit, so that on words of one length int order is lexicographic
order; its 0/1 text is ``f"{bits:0{n}b}"``. Lengths of several thousand
letters are routine since Python ints are arbitrary precision. Three
operations act on the ints without going through text: θ (0 -> 01,
1 -> 10), and the windows of one width read at many offsets, as ints or
as keys that order and tie as the windows do.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator


def _theta_nibble(x: int) -> int:
    """θ of the 4-letter word x as the 8 bits of its image: letter i from the
    end goes to bits 2i + 1 and 2i, 0 as 01 and 1 as 10."""
    return sum((2 if (x >> i) & 1 else 1) << (2 * i) for i in range(4))


# byte -> θ of its high / low nibble, for bytes.translate
_THETA_HIGH = bytes(_theta_nibble(b >> 4) for b in range(256))
_THETA_LOW = bytes(_theta_nibble(b & 15) for b in range(256))


def theta_bits(length: int, bits: int) -> int:
    """The bits of θ(w) for the word w of ``length`` letters and ``bits``.

    Each byte of ``bits``, padded to whole bytes, goes to the two bytes of
    its image by two 256-entry tables. The padding zeros go to 01 pairs at
    bit 2·length and above, which the mask drops.
    """
    data = bits.to_bytes((length + 7) // 8, "big")
    image = bytearray(2 * len(data))
    image[0::2] = data.translate(_THETA_HIGH)
    image[1::2] = data.translate(_THETA_LOW)
    return int.from_bytes(image, "big") & ((1 << 2 * length) - 1)


def read_windows(length: int, bits: int, n: int, starts: Iterable[int]) -> Iterator[int]:
    """The width-n windows at the offsets ``starts`` of the word of
    ``length`` letters and ``bits``, as the ints of their bits, one at a time.

    The window that ends s letters before the end of the word is
    (bits >> s) masked to n bits. It is read from the little-endian bytes of
    bits >> (s % 8), from byte s // 8 on, (n + 7) // 8 of them, which carry
    up to 7 more bits.
    """
    size = (length + 7) // 8
    shifted = [(bits >> r).to_bytes(size, "little") for r in range(8)]
    span = (n + 7) // 8
    last = length - n
    mask = (1 << n) - 1
    for p in starts:
        s = last - p
        i = s >> 3
        yield int.from_bytes(shifted[s & 7][i:i + span], "little") & mask


def window_keys(length: int, bits: int, n: int,
                starts: Iterable[int]) -> Iterator[tuple[bytes, int]]:
    """The width-n windows at the offsets ``starts`` of the word of
    ``length`` letters and ``bits``, as keys that order and tie as the
    windows do, one at a time: the window's first 8·(n // 8) letters as
    bytes, then its last n % 8 letters as an int.

    The window at p starts byte p // 8 of the big-endian bytes of the word
    shifted p % 8 letters to the left, so its head is a slice of them and
    its tail the high bits of the byte after that. One zero byte past the
    end holds the tail of a window that ends on the last letter.
    """
    size = (length + 7) // 8 + 1
    top = bits << (8 * size - length)
    mask = (1 << 8 * size) - 1
    shifted = [((top << r) & mask).to_bytes(size, "big") for r in range(8)]
    span, drop = n // 8, 8 - n % 8
    for p in starts:
        word, i = shifted[p & 7], p >> 3
        yield word[i:i + span], word[i + span] >> drop
