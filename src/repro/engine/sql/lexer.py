"""SQL tokenizer for the engine's query dialect.

One compiled master regex does the scanning: each alternative is one
token class (whitespace, comment, string, number, word, punctuation),
and a last catch-all alternative marks the one character no class
accepts. Line and column ride along: only whitespace and string tokens
can hold a newline, so the line start moves only when one of those
does.

Hardened for the never-crash contract: every malformed input — an
unterminated string, a lone quote at end of input, an absurdly long
numeric literal, non-ASCII bytes, control characters — raises
:class:`SqlError` with the line and column where the problem starts.
No input makes the lexer raise ``IndexError``/``ValueError`` or scan
without making progress.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .errors import SqlError, SqlSyntaxError

__all__ = ["Token", "SqlError", "SqlSyntaxError", "tokenize", "KEYWORDS",
           "MAX_NUMBER_DIGITS", "MAX_SQL_LENGTH"]

KEYWORDS = {
    "SELECT", "FROM", "WHERE", "GROUP", "BY", "HAVING", "ORDER", "ASC",
    "DESC", "LIMIT", "AS", "AND", "OR", "NOT", "IN", "LIKE", "BETWEEN",
    "CASE", "WHEN", "THEN", "ELSE", "END", "JOIN", "INNER", "LEFT",
    "SEMI", "ANTI", "ON", "SUM", "AVG", "COUNT", "MIN", "MAX", "DISTINCT",
    "EXTRACT", "YEAR", "SUBSTRING", "FOR", "INTERVAL", "DAY", "MONTH",
    "DATE", "IS", "NULL", "EXISTS", "UNION", "ALL",
    "UPPER", "LOWER", "CONCAT",
}

_PUNCT = {
    "<=": "LE", ">=": "GE", "<>": "NE", "!=": "NE", "=": "EQ", "<": "LT",
    ">": "GT", "+": "PLUS", "-": "MINUS", "*": "STAR", "/": "SLASH",
    "(": "LPAREN", ")": "RPAREN", ",": "COMMA", ".": "DOT", ";": "SEMI_COLON",
}

# A numeric literal longer than this is rejected outright: Python itself
# refuses int() conversions past ~4300 digits, and no sane query needs a
# 40-digit constant.
MAX_NUMBER_DIGITS = 40

# Upper bound on statement size; far above any real query, low enough
# that a hostile megabyte of nested parens is refused in O(1).
MAX_SQL_LENGTH = 1_000_000

# A string closes at the first quote that does not start a doubled
# (escaped) quote; a body holding a non-ASCII character, or no closing
# quote at all, falls through to ``bad``, which says which it was.
_TOKEN_RE = re.compile(
    r"(?P<ws>[ \t\r\n\f\v]+)"
    r"|(?P<comment>--[^\n]*)"
    r"|'(?P<string>(?:[^'\x80-\U0010ffff]|'')*)'(?!')"
    r"|(?P<number>[0-9]+(?:\.[0-9]*)?|\.[0-9]+)"
    r"|(?P<word>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<punct><=|>=|<>|!=|[=<>+\-*/(),.;])"
    r"|(?P<bad>.)",
    re.DOTALL,
)


class Token(NamedTuple):
    """One lexical token.

    ``kind`` is a keyword name, a punctuation name (``LE``, ``LPAREN``…),
    or one of ``IDENT`` / ``NUMBER`` / ``STRING`` / ``EOF``. ``position``
    is the character offset; ``line``/``column`` are 1-based.
    """

    kind: str
    value: str
    position: int
    line: int = 1
    column: int = 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.kind}({self.value!r})"


def _error(text: str, position: int, message: str) -> SqlError:
    line_start = text.rfind("\n", 0, position) + 1
    return SqlError(message, line=text.count("\n", 0, position) + 1,
                    column=position - line_start + 1)


def _number_end(text: str, start: int) -> int:
    """End of the number at ``start`` when a non-ASCII digit (which
    ``str.isdigit`` accepts) continues it past the regex's ASCII match."""
    end, seen_dot = start, False
    while end < len(text) and (
        text[end].isdigit() or (text[end] == "." and not seen_dot)
    ):
        seen_dot = seen_dot or text[end] == "."
        end += 1
    return end


def _bad(text: str, position: int) -> SqlError:
    """The error for the character no token class accepts."""
    ch = text[position]
    if ch == "'":
        i = position + 1
        while i < len(text):
            if text[i] > "\x7f":
                return _error(text, i, f"non-ASCII character {text[i]!r} in string literal")
            i += 2 if text[i:i + 2] == "''" else 1
        return _error(text, position, "unterminated string literal")
    if ch > "\x7f":
        return _error(text, position, f"non-ASCII character {ch!r} in SQL input")
    return _error(text, position, f"unexpected character {ch!r}")


def tokenize(text: str) -> list[Token]:
    """Tokenize ``text``; raises :class:`SqlError` on any bad input."""
    if not isinstance(text, str):
        raise SqlError(f"SQL statement must be a string, not {type(text).__name__}")
    n = len(text)
    if n > MAX_SQL_LENGTH:
        raise SqlError(
            f"SQL statement too long ({n} characters; limit {MAX_SQL_LENGTH})"
        )
    tokens: list[Token] = []
    append = tokens.append
    match = _TOKEN_RE.match
    pos, line, line_start = 0, 1, 0
    while pos < n:
        m = match(text, pos)
        kind = m.lastgroup
        end = m.end()
        if kind == "word":
            word = m.group(kind)
            upper = word.upper()
            if upper in KEYWORDS:
                append(Token(upper, upper, pos, line, pos - line_start + 1))
            else:
                append(Token("IDENT", word, pos, line, pos - line_start + 1))
        elif kind == "ws" or kind == "string":
            if kind == "string":
                value = m.group(kind)
                append(Token("STRING", value.replace("''", "'"), pos, line,
                             pos - line_start + 1))
            newlines = text.count("\n", pos, end)
            if newlines:
                line += newlines
                line_start = text.rindex("\n", pos, end) + 1
        elif kind == "punct" and not (
            end < n and text[pos] == "." and text[end] > "\x7f" and text[end].isdigit()
        ):
            value = m.group(kind)
            append(Token(_PUNCT[value], value, pos, line, pos - line_start + 1))
        elif kind == "number" or kind == "punct":
            if end < n and text[end] > "\x7f":
                end = _number_end(text, pos)
            if end - pos > MAX_NUMBER_DIGITS:
                raise _error(
                    text, pos,
                    f"numeric literal too long ({end - pos} characters; "
                    f"limit {MAX_NUMBER_DIGITS})",
                )
            append(Token("NUMBER", text[pos:end], pos, line, pos - line_start + 1))
        elif kind == "bad":
            raise _bad(text, pos)
        pos = end
    append(Token("EOF", "", n, line, n - line_start + 1))
    return tokens
