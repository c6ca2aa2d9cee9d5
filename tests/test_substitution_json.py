"""``Substitution.read_json`` against ``json.loads``: the chunked reader
gives the same substitution, or fails the same way, wherever the chunks of
the text end."""

import io
import json
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import MALFORMED_SUBSTITUTIONS, from_json_reference, labels
from tmblocks.claims import eta_system
from tmblocks import substitution_json
from tmblocks.substitution import Substitution
from tmblocks.substitution_json import (INT_LABEL_LENGTH, JSON_BATCH, JSON_CHUNK, key_label,
                                        label_key)


class _Chunks(io.StringIO):
    """A text file whose reads return at most ``size`` characters."""

    def __init__(self, text: str, size: int) -> None:
        super().__init__(text)
        self.size = size

    def read(self, n: int = -1) -> str:
        return super().read(self.size if n < 0 else min(n, self.size))


def _outcome(load):
    """What ``load()`` gives: the arrays and labels of the substitution, or
    the message, offset, line and column of a JSON syntax error, or the
    message of any other fault."""
    try:
        sub = load()
    except json.JSONDecodeError as exc:
        return "syntax", exc.msg, exc.pos, exc.lineno, exc.colno
    except ValueError as exc:
        return "fault", str(exc)
    except RecursionError:
        return "too deep",
    return sub.letters, sub.starts, labels(sub)


def _read(text: str, chunk: int, batch: int):
    """The outcome of the reader on ``text`` read ``chunk`` characters at a
    time, with runs of ``batch`` characters: at 0, one element at a time."""
    with mock.patch.object(substitution_json, "JSON_BATCH", batch):
        return _outcome(lambda: Substitution.read_json(_Chunks(text, chunk)))


def _outcomes_at_every_chunk_size(text: str, batches=(JSON_BATCH,)):
    """The outcome of the reader that decodes one element at a time, which
    must be the reference's but for the words of a fault (the reference
    names faults in its own words and order), and each chunk size and batch
    size whose outcome differs from it."""
    want = _read(text, max(len(text), 1), 0)
    reference = _outcome(lambda: from_json_reference(text))
    assert want[:1] == reference[:1] and (want[0] == "fault" or want == reference), (
        want, reference)
    return want, {(size, batch): got for size in range(1, len(text) + 1) for batch in batches
                  if (got := _read(text, size, batch)) != want}


class _Object(list):
    """A JSON object as its (key, value) pairs, in which a key may repeat."""


_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-3, 2 ** 33),
                     st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=3))
_VALUES = st.recursive(_SCALARS, lambda values: st.one_of(
    st.lists(values, max_size=3), st.dictionaries(st.text(max_size=2), values, max_size=2)),
    max_leaves=5)


# 0/1 words on both sides of the length from which they are held as ints,
# some with leading zeros
_BINARY_WORDS = st.one_of(
    st.text("01", min_size=INT_LABEL_LENGTH - 2, max_size=INT_LABEL_LENGTH + 2),
    st.builds(str.__add__, st.text("0", min_size=1, max_size=3),
              st.text("01", min_size=INT_LABEL_LENGTH - 3, max_size=INT_LABEL_LENGTH + 1)))


@st.composite
def _near_binary_words(draw) -> str:
    """A long 0/1 word with a mark in it that ``int(_, 2)`` may read past:
    an underscore, a space or tab (trailing ones are read), a sign, a base
    prefix, or a digit that is not ASCII."""
    word = draw(_BINARY_WORDS)
    mark = draw(st.sampled_from(["_", " ", "  ", "\t", " \t", "+", "-", "0b", "١", "𝟏"]))
    i = draw(st.integers(0, len(word)))
    return word[:i] + mark + word[i:]


# text in which a run of labels or images may be cut: it holds '",' and
# '],', escaped quotes and backslashes before a comma
_CUT_TEXT = st.text('",]\\[ a', max_size=5)
_LABELS = st.one_of(st.text(max_size=3), _BINARY_WORDS, _near_binary_words(), _CUT_TEXT)
# images that no substitution has, each after any run of valid ones
_BAD_IMAGES = st.sampled_from([[0.5], [True], [-1], [0, 2 ** 32], "x", [[0]], None, [0, None],
                               {"a": [0]}])


@st.composite
def _label_pairs(draw) -> tuple[str, str]:
    """Two labels, one time in three the same one."""
    a = draw(_LABELS)
    return a, draw(st.one_of(_LABELS, _LABELS, st.just(a)))


@settings(max_examples=300)
@given(_label_pairs())
def test_a_label_key_gives_back_its_label_and_equals_only_its_own(pair):
    a, b = pair
    for label in pair:
        key = label_key(label)
        assert key_label(key) == label
        assert (type(key) is int) == (len(label) >= INT_LABEL_LENGTH and set(label) <= {"0", "1"})
    assert (label_key(a) == label_key(b)) == (a == b)


@st.composite
def _dump(draw, value) -> str:
    """``value`` as JSON text, with whitespace between its tokens and its
    strings escaped to ASCII or not."""
    def ws():
        return draw(st.text(" \t\n\r", max_size=2))

    if isinstance(value, dict):
        value = _Object(value.items())
    if isinstance(value, _Object):
        members = [ws() + json.dumps(key) + ws() + ":" + draw(_dump(v)) for key, v in value]
        return ws() + "{" + (",".join(members) or ws()) + "}" + ws()
    if isinstance(value, list):
        return ws() + "[" + (",".join(draw(_dump(v)) for v in value) or ws()) + "]" + ws()
    return ws() + json.dumps(value, ensure_ascii=draw(st.booleans())) + ws()


@st.composite
def _substitution_texts(draw) -> str:
    """The JSON text of a substitution, its keys in either order, with other
    keys and repeated keys among them (the last value counts); in one text
    of four, labels and letters may be any JSON value. Labels are short
    text, long 0/1 words, near-binary words and text that holds '",' or
    '],'; in one text of two with more than one label, two of them are the
    same long 0/1 word, or that word with and without a leading zero. In one
    text of four a bad image is put among the images, and the other keys may
    hold such text, so that a run of labels or images may end inside a
    string, past its array's end or at a fault."""
    k = draw(st.integers(1, 4))
    faulty = draw(st.integers(0, 3)) == 0
    label = st.one_of(_LABELS, _VALUES) if faulty else _LABELS
    letter = st.one_of(st.integers(0, k - 1), _SCALARS) if faulty else st.integers(0, k - 1)
    alphabet = draw(st.lists(label, min_size=k - faulty, max_size=k, unique=not faulty))
    if len(alphabet) > 1 and draw(st.booleans()):
        word = draw(_BINARY_WORDS)
        i, j = draw(st.lists(st.integers(0, len(alphabet) - 1), min_size=2, max_size=2,
                             unique=True))
        alphabet[i], alphabet[j] = word, draw(st.sampled_from([word, "0" + word]))
    images = draw(st.lists(st.lists(letter, min_size=1 - faulty, max_size=3),
                           min_size=k - faulty, max_size=k))
    if draw(st.integers(0, 3)) == 0:
        images.insert(draw(st.integers(0, len(images))), draw(_BAD_IMAGES))
    members = [("alphabet", alphabet), ("images", images)]
    if draw(st.booleans()):
        members.reverse()
    for _ in range(draw(st.integers(0, 2))):
        key = draw(st.sampled_from(["alphabet", "images", "x", "", "images "]))
        value = draw(st.one_of(_VALUES, _CUT_TEXT, st.lists(_CUT_TEXT, max_size=2)))
        members.insert(draw(st.integers(0, len(members))), (key, value))
    return draw(_dump(_Object(members)))


@st.composite
def _broken_texts(draw) -> str:
    """A substitution's JSON text cut short, or with one character put in or
    taken out."""
    text = draw(_substitution_texts())
    i = draw(st.integers(0, len(text)))
    how = draw(st.sampled_from(["cut", "insert", "delete"]))
    if how == "cut":
        return text[:i]
    if how == "insert":
        return text[:i] + draw(st.sampled_from(list('{}[],:"\\ 0-.eEtu'))) + text[i:]
    return text[:i] + text[i + 1:]


@settings(max_examples=150, deadline=None)
@given(st.one_of(_substitution_texts(), _broken_texts()))
def test_reader_matches_json_loads_at_every_chunk_size(text):
    # chunk edges fall inside numbers (12|34), literals (tru|e), strings and
    # \uXXXX escapes; a syntax error is named at the same line, column and
    # offset of the whole text as by json.loads
    want, differ = _outcomes_at_every_chunk_size(text, (8, JSON_BATCH))
    assert not differ, (want, differ)


@pytest.mark.parametrize("text", [
    '{"alphabet": ["a"], "images": [[0]], "x": 1234}',
    '{"x": -12.5e+34, "alphabet": ["a"], "images": [[0]]}',
    '{"x": [true, false, null], "alphabet": ["a"], "images": [[0]]}',
    '{"alphabet": ["\\u00e9\\ud83d\\ude00", "\\"\\\\"], "images": [[1, 0], [0]]}',
    '{"alphabet": ["a", "a"], "images": [[0]], "alphabet": ["b"]}',
    '{"images": 5, "alphabet": ["a"], "images": [[0, 0]]}',
    '{"alphabet": ["a"], "images": [[0]]}\n\n\n  {"alphabet"',
    '{"alphabet": ["a", "b"],\n "images": [[1], [0],\n [2]]}',
    '{"alphabet": ["a"],\n "images": [[0]],\n}',
    '{"alphabet": ["a"], "images": [[0] ,\n\n  ]}',
    '{"alphabet": ["a", ], "images": [[0]]}',
    '{"alphabet": ["a"], "images": [[0],]}',
    '{"alphabet": ["a"], "images": [[0, ]]}',
    '{"alphabet": ["a"], "images": [[0]], "x": {"y": 1,\n}}',
    '{"alphabet": ["a"], "images": [[0]], "x": [,]}',
    '{"alphabet": ["a"], "images": [[0]], "x": {,}}',
    '{"alphabet": ["a"], "images": [[1.5e3]]}',
    '{"alphabet": ["a"], "images": [[0]], "images": [[-1]]}',
    '{"alphabet": ["a"], "images": [[4294967296]]}',
    '{"alphabet": ["a"], "images": [[0]] ]',
    '{"alphabet": ["a"] "images": [[0]]}',
    '{"alphabet" ["a"], "images": [[0]]}',
    '{"alphabet": ["a"], images: [[0]]}',
    "",
    "   ",
    "[1, 2]",
    "[1, 2",
    "{}",
])
def test_reader_matches_json_loads_on_chunk_edges(text):
    want, differ = _outcomes_at_every_chunk_size(text, (8, JSON_BATCH))
    assert not differ, (want, differ)


@pytest.mark.parametrize("text", [*MALFORMED_SUBSTITUTIONS, *(
    '{"alphabet": ["a"], "images": [[0]]}' + tail for tail in ("x", "{}", "]", '"', " 1", "\n}"))])
def test_malformed_substitutions_are_refused_at_every_chunk_size(text):
    # beyond a few thousand characters every chunk of the deep payload nests
    # past the recursion limit, so those sizes stand for all larger ones
    for size in [*range(1, min(len(text), 3000) + 1), len(text)]:
        with pytest.raises((ValueError, RecursionError)):
            Substitution.read_json(_Chunks(text, size))


def test_syntax_error_far_into_a_text_of_many_lines():
    # json.loads and the reader name the same line, column and offset, far
    # past the first chunk of the text
    data = json.loads(eta_system(8).eta.to_json())
    text = json.dumps(data, indent=1)
    i = text.rindex("]", 0, len(text) - 10)
    assert i > 3 * JSON_CHUNK and text.count("\n", 0, i) > 1000
    bad = text[:i] + text[i + 1:]
    with pytest.raises(json.JSONDecodeError) as want:
        json.loads(bad)
    with pytest.raises(json.JSONDecodeError) as got:
        Substitution.from_json(bad)
    assert str(got.value) == str(want.value)
    assert (got.value.pos, got.value.lineno, got.value.colno) == (
        want.value.pos, want.value.lineno, want.value.colno)


def test_faults_follow_the_order_of_the_text():
    # the first fault in the text is named, and a fault in a value that a
    # later key replaces is none
    with pytest.raises(ValueError, match="labels must be strings"):
        Substitution.from_json('{"alphabet": [1], "images": [[0.5]]}')
    with pytest.raises(ValueError, match="non-integer letter 0.5"):
        Substitution.from_json('{"images": [[0.5]], "alphabet": [1]}')
    sub = Substitution.from_json('{"images": [[true]], "alphabet": ["a"], "images": [[0, 0]]}')
    assert list(sub.letters) == [0, 0] and labels(sub) == ("a",)


@pytest.mark.parametrize("text", [
    '{"alphabet": ["a"], "images": [[0] ,\n\n  ]}',
    '{"alphabet": ["a"],\n "images": [[0]] , \n}',
])
def test_a_trailing_comma_is_named_as_the_running_json_names_it(monkeypatch, text):
    # Python 3.13 names a trailing comma at the comma, where earlier
    # versions name the closer; a json that names the comma is stood in
    class Decoder(json.JSONDecoder):
        def raw_decode(self, s, idx=0):
            if s in substitution_json.TRAILING_COMMAS.values():
                raise json.JSONDecodeError("Illegal trailing comma", s, s.index(","))
            return super().raw_decode(s, idx)

    monkeypatch.setattr(substitution_json, "_DECODER", Decoder())
    comma = text.rindex(",")
    want = json.JSONDecodeError("Illegal trailing comma", text, comma)
    for size in range(1, len(text) + 1):
        with pytest.raises(json.JSONDecodeError) as got:
            Substitution.read_json(_Chunks(text, size))
        assert str(got.value) == str(want), size
        assert (got.value.pos, got.value.lineno, got.value.colno) == (
            want.pos, want.lineno, want.colno), size


def test_letters_outside_the_alphabet_are_checked_last():
    # the reader does not know the number of labels before the text ends,
    # so a letter at or above it is named after every other fault
    with pytest.raises(ValueError, match="labels must be strings"):
        Substitution.from_json('{"images": [[7]], "alphabet": [1]}')
    with pytest.raises(ValueError, match="image of letter 1 uses unknown letter -1"):
        Substitution.from_json('{"alphabet": ["a", "b"], "images": [[5], [-1]]}')
    with pytest.raises(ValueError, match="image of letter 0 uses unknown letter 5"):
        Substitution.from_json('{"alphabet": ["a", "b"], "images": [[5], [0]]}')


def _count_decodes(monkeypatch, fail=lambda s, idx: False):
    """The number of calls of the reader's decoder, in a list of one, from
    here on; a call for which ``fail(s, idx)`` raises RecursionError."""
    calls = [0]

    class Decoder(json.JSONDecoder):
        def raw_decode(self, s, idx=0):
            calls[0] += 1
            if fail(s, idx):
                raise RecursionError("maximum recursion depth exceeded")
            return super().raw_decode(s, idx)

    monkeypatch.setattr(substitution_json, "_DECODER", Decoder())
    return calls


@pytest.mark.parametrize("label", ['a",b', 'a",bc'])
def test_runs_cut_inside_strings_cost_linear_time(monkeypatch, label):
    # in the text ["a\",b", "a\",b", ...] a run may end at the '",' of an
    # escaped quote, inside a string, where it does not decode: then its
    # labels are decoded one at a time, once each, and the next run starts
    # after them. Runs of 4 K characters end inside a string now and then
    # for the label a",b and every time for a",bc
    calls = _count_decodes(monkeypatch)
    n = 20_000
    text = json.dumps({"alphabet": [label] * n, "images": [[0]] * n})
    assert text.count('\\",') == n
    with pytest.raises(ValueError, match="must be distinct"):
        Substitution.from_json(text)
    assert calls[0] <= 1.1 * n, calls


def test_a_run_that_nests_too_deep_is_read_one_element_at_a_time(monkeypatch):
    # a run nests one level deeper than its elements, so near the recursion
    # limit it may fail where each element decodes: a decoder that fails on
    # every run stands in for that
    text = '{"alphabet": ["a", "b"], "images": [[1, 0], [[0]], [0]]}'
    want = _read(text, len(text), 0)
    calls = _count_decodes(monkeypatch, lambda s, idx: s.startswith("[[") and idx == 0)
    assert _read(text, len(text), JSON_BATCH) == want == ("fault", "image of letter 1 has "
                                                          "non-integer letter [0]")
    assert calls[0] > 2


def test_runs_resume_after_a_run_that_fails(monkeypatch):
    # a run fails far into the text, past the first chunks: only its labels
    # are decoded one at a time, and the next run starts after them
    n = 20_000
    alphabet = [str(i) for i in range(n)]
    alphabet[n // 2] = "x"
    text = json.dumps({"alphabet": alphabet, "images": [[0]] * n})
    assert text.index('"x"') > 2 * JSON_CHUNK
    calls = _count_decodes(monkeypatch, lambda s, idx: idx == 0 and '"x"' in s)
    sub = Substitution.from_json(text)
    assert labels(sub) == tuple(alphabet)
    assert calls[0] < n / 20, calls
