"""Hypothesis fuzzing of the text formats: problems (dense and typed),
mixtures and rationals.

Formatting then parsing must give back the same object, and malformed text
must raise ``ValueError`` (the CLI's exit 2) and nothing else.  Every
strategy is bounded: at most 8 agents and 6 outcomes, typed counts up to
20, decimal exponents up to 10^6 in size, and at most three character
edits.  An exponent above ``core.MAX_EXPONENT`` is refused before
``Fraction`` builds its power of ten, so every draw parses cheaply or fails
fast.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from fairmix.core import (
    Mixture,
    Problem,
    format_mixture,
    format_problem,
    format_typed_profile,
    parse_mixture,
    parse_problem,
    parse_rational,
)

MAX_AGENTS, MAX_OUTCOMES, MAX_COUNT, MAX_EXPONENT = 8, 6, 20, 10**6


@st.composite
def _problems(draw):
    m = draw(st.integers(1, MAX_OUTCOMES))
    masks = draw(st.lists(st.integers(1, 2**m - 1), min_size=1, max_size=MAX_AGENTS))
    return Problem(m, tuple((1, mask) for mask in masks))


@st.composite
def _typed_profiles(draw):
    m = draw(st.integers(1, MAX_OUTCOMES))
    entries = draw(st.lists(
        st.tuples(
            st.integers(1, MAX_COUNT),
            st.integers(1, 2**m - 1),
        ),
        min_size=1,
        max_size=5,
    ))
    return Problem(m=m, entries=tuple(entries))


@st.composite
def _mixtures(draw):
    weights = draw(st.lists(st.integers(0, 50), min_size=1, max_size=MAX_OUTCOMES))
    if not any(weights):
        weights[0] = 1
    return Mixture(tuple(Fraction(w, sum(weights)) for w in weights))


@st.composite
def _edited(draw, texts):
    """A text with up to three single-character deletions, insertions or
    replacements, the new characters from the formats' own alphabet."""
    text = draw(texts)
    chars = st.sampled_from("01 \n/.-+eE_x9typed")
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(text)))
        op = draw(st.sampled_from(("delete", "insert", "replace")))
        if op == "insert":
            text = text[:i] + draw(chars) + text[i:]
        else:
            text = text[:i] + (draw(chars) if op == "replace" else "") + text[i + 1:]
    return text


_digits = st.text(alphabet="0123456789", min_size=1, max_size=4)
_rational_texts = st.builds(
    lambda sign, num, tail: sign + num + tail,
    st.sampled_from(("", "-", "+")),
    _digits,
    st.one_of(
        st.just(""),
        _digits.map(lambda d: "/" + d),
        _digits.map(lambda d: "." + d),
        st.builds(
            lambda d, e: f".{d}e{e}", _digits, st.integers(-MAX_EXPONENT, MAX_EXPONENT)
        ),
    ),
)
_problem_texts = st.one_of(
    _problems().map(format_problem), _typed_profiles().map(format_typed_profile)
)
_mixture_texts = st.one_of(
    _mixtures().map(format_mixture),
    st.lists(_rational_texts, min_size=1, max_size=MAX_OUTCOMES).map(" ".join),
)


@settings(max_examples=200, deadline=None)
@given(_problems())
def test_dense_format_round_trips(P):
    assert parse_problem(format_problem(P)) == P


@settings(max_examples=200, deadline=None)
@given(_typed_profiles())
def test_typed_format_round_trips(T):
    assert parse_problem(format_typed_profile(T)) == T


@settings(max_examples=200, deadline=None)
@given(_mixtures())
def test_mixture_format_round_trips(z):
    assert parse_mixture(format_mixture(z)) == z
    for x in z.z:
        assert parse_rational(str(x)) == x


def _parses_or_value_error(parse, text):
    try:
        parse(text)
    except ValueError:
        pass


@settings(max_examples=400, deadline=None)
@given(_edited(_problem_texts))
def test_malformed_problem_text_raises_value_error(text):
    _parses_or_value_error(parse_problem, text)


@settings(max_examples=400, deadline=None)
@given(_edited(_mixture_texts))
def test_malformed_mixture_text_raises_value_error(text):
    _parses_or_value_error(parse_mixture, text)


@settings(max_examples=400, deadline=None)
@given(_edited(_rational_texts))
def test_malformed_rational_text_raises_value_error(text):
    _parses_or_value_error(parse_rational, text)
