"""Hypothesis strategies shared by the word-statistics tests."""

from hypothesis import strategies as st

from diowords.words import Word


@st.composite
def mixed_words(draw, min_size: int):
    """Words of up to 60 letters over alphabets of size 2..256.

    Letters come from a drawn palette of at most 16 letters, so that
    words over large alphabets still repeat, and letter values anywhere
    in 0..255 meet in one word.
    """
    b = draw(st.integers(2, 256))
    palette = draw(st.lists(st.integers(0, b - 1), min_size=1, max_size=16, unique=True))
    letters = draw(st.lists(st.sampled_from(palette), min_size=min_size, max_size=60))
    return Word(bytes(letters), b)
