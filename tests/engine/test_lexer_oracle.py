"""The regex lexer against the per-character one it replaced.

On the SQL fuzz wall's alphabets — arbitrary unicode, printable soup,
keyword/token soup and mutated real queries — :func:`tokenize` must
return the same tokens (kind, value, position, line, column) as
``lexer_oracle.tokenize``, or raise a :class:`SqlError` with the same
message, line and column. The EOF token's column is the one intended
difference: the oracle puts it one column too far right after a
trailing one-character punctuation, and the regex lexer does not.
"""

from __future__ import annotations

import os
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.sql import SqlError, parse_ast, tokenize
from repro.tpch.sqltext import SQL_QUERY_NUMBERS, sql_text

from . import lexer_oracle
from .test_sql_fuzz import CORPUS, TOKENS, _mutated_query

_EXAMPLES = 2500 if os.environ.get("HYPOTHESIS_PROFILE") == "ci" else 200


def _outcome(lex, text):
    try:
        tokens = lex(text)
    except SqlError as err:
        return ("error", str(err), err.line, err.column)
    # Position, line and kind of EOF must agree; its column is the fix.
    return ("tokens", tokens[:-1], tokens[-1][:4])


def _assert_same(text: str) -> None:
    assert _outcome(tokenize, text) == _outcome(lexer_oracle.tokenize, text), repr(text)


_AWKWARD = "'\"-.\n\t\x0b٣²é _"


@given(st.text(max_size=300))
@settings(max_examples=_EXAMPLES, derandomize=True, deadline=None)
def test_arbitrary_unicode_lexes_like_the_oracle(text):
    _assert_same(text)


@given(st.text(alphabet=string.printable + _AWKWARD, max_size=300))
@settings(max_examples=_EXAMPLES, derandomize=True, deadline=None)
def test_printable_soup_lexes_like_the_oracle(text):
    _assert_same(text)


@given(st.lists(st.sampled_from(TOKENS + tuple(_AWKWARD)), max_size=60).map("".join))
@settings(max_examples=_EXAMPLES, derandomize=True, deadline=None)
def test_token_soup_lexes_like_the_oracle(text):
    _assert_same(text)


@given(_mutated_query())
@settings(max_examples=_EXAMPLES, derandomize=True, deadline=None)
def test_mutated_queries_lex_like_the_oracle(text):
    _assert_same(text)


@pytest.mark.parametrize("text", CORPUS)
def test_corpus_lexes_like_the_oracle(text):
    _assert_same(text)


@pytest.mark.parametrize("text", [
    "'it''s'", "'''", "''''", "'a''", "'\n'x", "1.2.3", "..5", "1٣.5",
    ".٣", "12.٣", "1²", "é", "SELECT 'é'", "a\n\n  'x\n", "-- é\nx",
    "!", "!=", "<>=", "x\x1f", "9" * 41, " ",
])
def test_pinned_edges_lex_like_the_oracle(text):
    _assert_same(text)


@pytest.mark.parametrize("last", ["=", "(", "+", ",", ";", "*"])
def test_eof_column_follows_a_trailing_one_character_punctuation(last):
    text = "SELECT a FROM t WHERE x " + last
    eof = tokenize(text)[-1]
    assert (eof.kind, eof.position, eof.column) == ("EOF", len(text), len(text) + 1)


def test_unexpected_end_of_input_names_the_column_after_the_text():
    text = "SELECT a FROM t WHERE x ="
    with pytest.raises(SqlError) as err:
        parse_ast(text)
    assert err.value.column == len(text) + 1 == 26
    assert "unexpected end of input (line 1, column 26)" in str(err.value)
    with pytest.raises(SqlError) as two_char:
        parse_ast("SELECT a FROM t WHERE x <=")
    assert two_char.value.column == 27


def test_regex_lexer_is_faster_on_the_tpch_texts():
    """The point of the rewrite, pinned loosely: best of five passes over
    the 22 TPC-H texts, regex lexer at least 1.5x ahead."""
    import time

    texts = [sql_text(n, {"sf": 0.1}) for n in SQL_QUERY_NUMBERS]

    best = {lexer_oracle.tokenize: float("inf"), tokenize: float("inf")}
    for _ in range(5):  # interleaved, so host load hits both alike
        for lex in best:
            start = time.perf_counter()
            for text in texts:
                lex(text)
            best[lex] = min(best[lex], time.perf_counter() - start)
    assert best[lexer_oracle.tokenize] >= 1.5 * best[tokenize]
