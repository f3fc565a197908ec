"""Fuzzing of the text parsers: on any input they return a value or raise
ValueError, never another exception."""

from hypothesis import given, settings, strategies as st

from relators.experiment import _CONFIG_KEYS, ExperimentConfig, parse_config
from relators.fox import GroupRingElement, parse_ring_element
from relators.words import parse_letters

# characters the grammars care about, so that near-valid inputs are common
WORD_CHARS = "xX0123456789 \t\n-"
RING_CHARS = WORD_CHARS + "[]*+/."
CONFIG_CHARS = RING_CHARS + "=#,eE_abcdfghiklmnoprstuvwy"


def texts(chars):
    return st.one_of(st.text(), st.text(alphabet=chars))


@given(texts(WORD_CHARS))
@settings(max_examples=400)
def test_parse_letters_returns_letters_or_value_error(text):
    try:
        out = parse_letters(text)
    except ValueError:
        return
    assert isinstance(out, tuple) and all(type(a) is int and a != 0 for a in out)


@given(texts(RING_CHARS), st.integers(min_value=0, max_value=3))
@settings(max_examples=400)
def test_parse_ring_element_returns_element_or_value_error(text, rank):
    try:
        out = parse_ring_element(text, rank)
    except ValueError:
        return
    assert isinstance(out, GroupRingElement) and out.rank == rank


def test_parse_ring_element_zero_denominator_is_value_error():
    for text in ("1/0*[x1]", "[x1] + -3/0*[]"):
        try:
            parse_ring_element(text, 1)
        except ValueError as exc:
            assert "zero denominator" in str(exc)
        else:
            raise AssertionError(f"{text!r} parsed")


config_lines = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(sorted(_CONFIG_KEYS)), texts(CONFIG_CHARS)).map(
            lambda kv: f"{kv[0]} = {kv[1]}"
        ),
        texts(CONFIG_CHARS),
    ),
    max_size=16,
).map("\n".join)


@given(st.one_of(st.text(), config_lines))
@settings(max_examples=400)
def test_parse_config_returns_config_or_value_error(text):
    try:
        out = parse_config(text)
    except ValueError:
        return
    assert isinstance(out, ExperimentConfig)
