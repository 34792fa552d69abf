"""How an error message quotes a refused value: ``errors.quoted``."""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from orbichern.errors import QUOTE_LIMIT, clipped, quoted

# values as a JSON file or a record constructor may hand them over, nested
VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text() | st.binary(),
    lambda inner: st.lists(inner)
    | st.lists(inner).map(tuple)
    | st.dictionaries(st.text(), inner)
    | st.frozensets(st.integers() | st.text()),
    max_leaves=30,
)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(VALUES)
def test_a_short_text_is_quoted_as_ascii_quotes_it_and_a_long_one_is_cut(value):
    text, quote = ascii(value), quoted(value)
    if len(text) <= QUOTE_LIMIT:
        assert quote == text
    else:
        assert len(quote) == QUOTE_LIMIT and quote.endswith("...")
        if "'" not in text and '"' not in text:  # a cut str may take the other quote
            assert text.startswith(quote[:-3])


def test_short_values_keep_their_exact_quotes():
    for value in ("Q3", ["A1"], (1,), (), set(), frozenset({2}), {"k": (None,)}, b"\x00", "it's", "٣"):
        assert quoted(value) == ascii(value)


class _Unquotable:
    def __repr__(self):
        raise AssertionError("quoted past what the message shows")


def test_a_long_value_is_quoted_from_its_head_only():
    assert quoted("x" * 100000) == "'" + "x" * (QUOTE_LIMIT - 4) + "..."
    assert quoted([1] * 100 + [_Unquotable()]) == ascii([1] * 100)[: QUOTE_LIMIT - 3] + "..."
    assert quoted({"k" * 10**6: _Unquotable()}) == "{'" + "k" * (QUOTE_LIMIT - 5) + "..."
    deep = []
    for _ in range(10**4):  # deeper than the interpreter's recursion limit
        deep = [deep]
    assert quoted(deep) == "[" * (QUOTE_LIMIT - 3) + "..."
    assert quoted(-(10**5000)) == "<an int of 16610 bits>"  # past the digit limit, never printed
    # so is a Fraction whose numerator or denominator has more than 1000 bits, bare and nested
    big = Fraction(10**5000, 7)
    assert quoted(big) == "<a Fraction of 16610 bits over 3 bits>"
    assert quoted(Fraction(1, 3**700)) == "<a Fraction of 1 bits over 1110 bits>"
    assert quoted({"c1_squared": big}) == "{'c1_squared': <a Fraction of 16610 bits over 3 bits>}"
    assert quoted([big, big]) == "[<a Fraction of 16610 bits over 3 bits>, <a Fraction of 1..."
    assert quoted(Fraction(2**1000 - 1, 3)) == ascii(Fraction(2**1000 - 1, 3))[: QUOTE_LIMIT - 3] + "..."
    assert quoted(Fraction(-1, 2)) == "Fraction(-1, 2)"


def test_clipped_keeps_a_text_of_at_most_the_limit():
    rng = random.Random(7)
    for size in (0, 1, QUOTE_LIMIT - 1, QUOTE_LIMIT, QUOTE_LIMIT + 1, 10**5):
        text = "".join(rng.choice("ab'") for _ in range(size))
        assert clipped(text) == (text if size <= QUOTE_LIMIT else text[: QUOTE_LIMIT - 3] + "...")
