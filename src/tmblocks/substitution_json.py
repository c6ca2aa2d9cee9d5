"""The chunked reader of a substitution's JSON text, behind
``Substitution.read_json`` and ``from_json``: only the commands that read
JSON load it.

The text is read from a text file JSON_CHUNK characters at a time, and only
the part not yet decoded is held. The object is decoded key by key, and its
arrays a run of whole elements at a time by ``json.JSONDecoder.raw_decode``,
a run of up to JSON_BATCH characters: a run of short labels goes into the
list of label keys with one ``extend``, and a run of images into the two
flat arrays with one ``extend`` each, and no copy of the whole text or list
of images is made. A long label, a wrong value and the elements of a run
that does not decode, such as one cut inside a string, are taken one at a
time, so that each fault and syntax error is named as when every element
is decoded by itself.

A label is held as its key (``label_key``): a long 0/1 label, such as a
block letter's, as the int of its bits, which takes about a sixth of its
``str``, and any other label as itself. The label function that
``read_substitution`` hands back gives each letter's label exactly.
"""

from __future__ import annotations

import json
from array import array
from collections.abc import Callable, Iterator
from io import TextIOBase
from itertools import accumulate, chain, islice
from json.decoder import WHITESPACE
from operator import eq

# Characters of JSON text read at a time. Between half a chunk and a chunk
# and a half of text is held, unless a single value is longer. The reader of
# a text file holds two more chunks: at 64 K characters the η file at m = 9
# peaks at 1.35 times its size in tracemalloc, at 32 K at 1.24 times.
JSON_CHUNK = 1 << 15
_HALF_CHUNK = JSON_CHUNK // 2
# Characters of an array decoded at a time, as a run of whole elements: a
# run of 4 K characters holds a few hundred short labels or images, and its
# list of them adds less than 0.1 MB to the peak of reading a file.
JSON_BATCH = 1 << 12
_DECODER = json.JSONDecoder()
# An array and an object that end in a trailing comma, by their closer
TRAILING_COMMAS = {"]": "[0, ]", "}": '{"": 0, }'}
# A label of at least this many letters that is a word over {0, 1} is held as
# an int: at m = 10 a label of 1 025 letters takes 164 bytes as an int and
# 1 074 as a str. Shorter labels, such as the decimal ones of small inputs,
# skip the conversion.
INT_LABEL_LENGTH = 64


class _JsonText:
    """The JSON text of a text file, of which only the part not yet decoded
    is held: ``buf[pos:]``, at offset ``base + pos`` of the whole text. The
    methods follow ``json``'s own scanner, and so do the errors: a syntax
    error gets the message and offset that ``json.loads`` gives."""

    def __init__(self, fh: TextIOBase) -> None:
        self.fh = fh
        self.buf = ""
        self.pos = self.base = 0
        self.lines = self.line_start = 0  # newlines before ``base``; offset after the last
        self.comma = -1  # offset of a comma whose next value is not yet found, else -1
        self.ended = False  # the file is read to its end

    def read(self, size: int) -> None:
        """Drop the decoded text but for a pending ``comma``, and append
        chunks, at least one and at least ``size`` characters unless the
        text ends."""
        pos = self.pos if self.comma < 0 else self.comma - self.base
        if self.buf.find("\n", 0, pos) >= 0:  # find is faster than count
            self.lines += self.buf.count("\n", 0, pos)
            self.line_start = self.base + self.buf.rindex("\n", 0, pos) + 1
        pieces = [self.buf[pos:]]
        self.buf, self.pos, self.base = "", self.pos - pos, self.base + pos
        while True:
            chunk = self.fh.read(JSON_CHUNK)
            if not chunk:
                self.ended = True
                break
            pieces.append(chunk)
            size -= len(chunk)
            if size <= 0:
                break
        self.buf = "".join(pieces)

    def peek(self) -> str:
        """The next character that is not whitespace, which is skipped; ""
        at the end of the text. A chunk is read first when less than half a
        chunk is left, so that a value of up to half a chunk lies whole in
        the buffer and decodes at the first try."""
        while True:
            if len(self.buf) - self.pos < _HALF_CHUNK and not self.ended:
                self.read(1)
            buf = self.buf
            self.pos = pos = WHITESPACE.match(buf, self.pos).end()
            if pos < len(buf) or self.ended:
                return buf[pos:pos + 1]

    def value(self):
        """The JSON value at ``pos``, where ``peek`` has left it. It is
        decoded once it lies whole in the buffer with 3 characters after
        it, or the text ends: a number split as 1.|5 or 1e+|5 decodes as 1
        with 2 characters after it. Each retry first doubles the text not
        yet decoded, so that a long value costs linear time."""
        while True:
            try:
                value, end = _DECODER.raw_decode(self.buf, self.pos)
            except json.JSONDecodeError as exc:
                if self.ended:
                    raise self.error(exc.msg, exc.pos) from None
            else:
                if len(self.buf) - end >= 3 or self.ended:
                    self.pos = end
                    return value
            self.read(len(self.buf) - self.pos)

    def members(self) -> Iterator[str]:
        """The keys of the JSON object at the next character, in order. The
        caller reads the value of each key before it asks for the next."""
        self.peek()
        self.pos += 1
        if self.peek() == "}":
            self.pos += 1
            return
        while True:
            if self.peek() != '"':
                raise self.error("Expecting property name enclosed in double quotes")
            key = self.value()
            if self.peek() != ":":
                raise self.error("Expecting ':' delimiter")
            self.pos += 1
            yield key
            if not self.more("}"):
                return

    def elements(self, separator: str) -> Iterator[list]:
        """The elements of the JSON array at the next character, in order,
        in lists. ``separator`` is how an element and the comma after it
        end, ``"],"`` for arrays and ``'",'`` for strings: the text up to
        the last separator in the next JSON_BATCH characters is decoded at
        once, as an array. That fails when the cut falls inside a string or
        past the array's end, or the text holds a syntax error; then the
        elements up to the cut are decoded one at a time, so that an error
        is named as before and the cost stays linear."""
        self.peek()
        self.pos += 1
        if self.peek() == "]":
            self.pos += 1
            return
        while True:
            pos = self.pos
            cut = self.buf.rfind(separator, pos, pos + JSON_BATCH) + 1
            if cut > pos:
                run = "[" + self.buf[pos:cut] + "]"
                try:
                    batch, end = _DECODER.raw_decode(run)
                except (ValueError, RecursionError):
                    end = 0
                if end == len(run):
                    self.pos = cut
                    yield batch
                    self.more("]")  # the comma that ``separator`` ends in
                    continue
            cut += self.base  # an offset of the whole text: ``value`` may drop the text before it
            batch = []
            while True:
                batch.append(self.value())
                if not self.more("]"):
                    yield batch
                    return
                if self.base + self.pos >= cut:
                    break
            yield batch

    def more(self, closer: str) -> bool:
        """Whether another member or element follows the one just read in an
        object or array that ends in ``closer``: reads the comma, or the
        closer."""
        separator = self.buf[self.pos:self.pos + 1]  # mostly right after the value
        if separator != "," and separator != closer:
            separator = self.peek()
        self.pos += 1
        if separator == ",":
            self.comma = self.base + self.pos - 1
            if self.peek() == closer:
                raise self.trailing_comma()
            self.comma = -1
            return True
        if separator != closer:
            raise self.error("Expecting ',' delimiter", self.pos - 1)
        return False

    def trailing_comma(self) -> json.JSONDecodeError:
        """The error of ``json.loads`` on the ``comma`` before the closer at
        the next character. Python 3.13 names it at the comma, as a trailing
        comma, and earlier versions at the closer, as a missing value or
        key: the error is taken from the running ``json`` on a text of the
        same kind."""
        text = TRAILING_COMMAS[self.buf[self.pos]]
        try:
            _DECODER.raw_decode(text)
        except json.JSONDecodeError as exc:
            return self.error(exc.msg, self.comma - self.base if text[exc.pos] == "," else self.pos)
        raise AssertionError(f"json accepts {text!r}")

    def end(self) -> None:
        """Raise unless only whitespace is left."""
        if self.peek():
            raise self.error("Extra data")

    def error(self, msg: str, pos: int | None = None) -> json.JSONDecodeError:
        """``json.JSONDecodeError`` at ``pos`` of the buffer, by default the
        next character, giving the line, column and offset in the whole text;
        its ``doc`` is the buffer."""
        pos = self.pos if pos is None else pos
        exc = json.JSONDecodeError(msg, self.buf, pos)
        if exc.lineno == 1:
            exc.colno = self.base + pos - self.line_start + 1
        exc.lineno += self.lines
        exc.pos = self.base + pos
        exc.args = (f"{msg}: line {exc.lineno} column {exc.colno} (char {exc.pos})",)
        return exc


def label_key(label: str) -> int | str:
    """The key in which ``label`` is held: ``int("1" + label, 2)`` when the
    label is a word over {0, 1} of at least INT_LABEL_LENGTH letters, else
    the label itself. The leading 1 keeps the length, so two keys are equal
    exactly when their labels are, and an int never equals a str."""
    if len(label) < INT_LABEL_LENGTH or not label.isascii():  # int reads "١" as 1
        return label
    try:
        key = int("1" + label, 2)
    except ValueError:
        return label
    # int also reads "_" between digits and trailing whitespace, each of
    # which leaves one bit fewer than letters
    return key if key.bit_length() == len(label) + 1 else label


def key_label(key: int | str) -> str:
    """The label held as ``key``, the inverse of ``label_key``."""
    return key if type(key) is str else format(key, "b")[1:]


class _Labels:
    """The value of "alphabet" read from a ``_JsonText``: the keys of its
    labels, or the first fault that makes it no list of distinct strings."""

    def __init__(self, text: _JsonText) -> None:
        self.keys = keys = []
        self.fault = fault = None
        if text.peek() != "[":
            text.value()
            self.fault = ValueError("'alphabet' and 'images' must be lists")
            return
        for batch in text.elements('",'):
            if fault is not None:
                continue
            if {*map(type, batch)} == {str} and max(map(len, batch)) < INT_LABEL_LENGTH:
                keys.extend(batch)  # each short label is its own key
                continue
            for label in batch:
                if type(label) is not str:
                    fault = ValueError("alphabet labels must be strings")
                    break
                keys.append(label_key(label))
        if fault is None:
            # no two are equal next to each other once sorted, the ints and
            # the strs apart: 8 bytes a key, where a set of them takes 85
            for kind in (int, str):
                ordered = sorted(key for key in keys if type(key) is kind)
                if any(map(eq, ordered, islice(ordered, 1, None))):
                    fault = ValueError("alphabet labels must be distinct")
                    break
        self.fault = fault


class _Images:
    """The value of "images" read from a ``_JsonText``: its images in
    ``letters`` and ``starts``, or the first fault that makes it no list of
    lists of letters."""

    def __init__(self, text: _JsonText) -> None:
        self.letters, self.starts = letters, starts = array("I"), array("I", [0])
        self.fault = fault = None
        if text.peek() != "[":
            text.value()
            self.fault = ValueError("'alphabet' and 'images' must be lists")
            return
        for batch in text.elements("],"):
            if fault is not None:
                continue
            if {*map(type, batch)} == {list} and {*map(type, chain.from_iterable(batch))} <= {int}:
                n = len(letters)
                try:
                    letters.extend(chain.from_iterable(batch))
                except OverflowError:  # a letter below 0 or of more than 32 bits
                    del letters[n:]
                else:
                    # the last offset is n, which accumulate puts back first
                    starts.extend(accumulate(map(len, batch), initial=starts.pop()))
                    continue
            for img in batch:
                try:
                    # true and false decode as bools, which are ints but not letters
                    if type(img) is not list or bool in map(type, img):
                        raise TypeError
                    letters.extend(img)
                except (TypeError, OverflowError):
                    fault = _image_fault(len(starts) - 1, img)
                    break
                starts.append(len(letters))
        self.fault = fault


def _image_fault(b: int, img) -> ValueError:
    """Why ``img``, a decoded JSON value, is no image of letter b."""
    if not isinstance(img, list):
        return ValueError(f"image of letter {b} must be a list, got {img!r}")
    not_ints = [a for a in img if type(a) is not int]  # floats, bools, None, ...
    if not_ints:
        return ValueError(f"image of letter {b} has non-integer letter {not_ints[0]!r}")
    a = next(a for a in img if not 0 <= a <= 0xFFFFFFFF)
    return ValueError(f"image of letter {b} uses unknown letter {a}")


def read_substitution(fh: TextIOBase) -> tuple[array, array, Callable[[int], str]]:
    """The letters, the image offsets and the label function of the
    substitution whose JSON text is read from ``fh``, checked as
    ``read_json`` says; the caller's constructor checks the letters against
    the labels."""
    text = _JsonText(fh)
    values: dict[str, _Labels | _Images] = {}  # the values that count, in text order
    if text.peek() == "{":
        for key in text.members():
            if key in ("alphabet", "images"):
                values.pop(key, None)
                values[key] = (_Labels if key == "alphabet" else _Images)(text)
            else:
                text.peek()
                text.value()
    else:
        text.value()  # no object: a syntax error in it comes first, as in json.loads
    text.end()
    if "alphabet" not in values or "images" not in values:
        raise ValueError("substitution JSON must contain 'alphabet' and 'images'")
    for value in values.values():
        if value.fault is not None:
            raise value.fault
    keys, images = values["alphabet"].keys, values["images"]
    if len(keys) != len(images.starts) - 1:
        raise ValueError(f"expected {len(keys)} images, got {len(images.starts) - 1}")

    def label(a: int) -> str:
        return key_label(keys[a])

    return images.letters, images.starts, label
