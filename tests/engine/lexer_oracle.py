"""The per-character SQL lexer, kept as the oracle for the regex lexer.

This is the scanner :func:`repro.engine.sql.tokenize` used before it
became one compiled master regex: a cursor that advances one character
at a time and tracks line and column as it goes. ``test_lexer_oracle``
checks that both produce equal tokens and equal :class:`SqlError`
messages and positions. The one intended difference is the EOF token's
column after a trailing one-character punctuation, which this loop puts
one column too far right (it advances two characters there).
"""

from __future__ import annotations

from repro.engine.sql.errors import SqlError
from repro.engine.sql.lexer import (
    _PUNCT,
    KEYWORDS,
    MAX_NUMBER_DIGITS,
    MAX_SQL_LENGTH,
    Token,
)


class _Cursor:
    """Scanner state tracking line/column alongside the offset."""

    def __init__(self, text: str):
        self.text = text
        self.i = 0
        self.line = 1
        self.line_start = 0

    @property
    def column(self) -> int:
        return self.i - self.line_start + 1

    def error(self, message: str, *, at: tuple[int, int] | None = None) -> SqlError:
        line, column = at if at is not None else (self.line, self.column)
        return SqlError(message, line=line, column=column)

    def advance(self, n: int = 1) -> None:
        for _ in range(n):
            if self.i < len(self.text) and self.text[self.i] == "\n":
                self.line += 1
                self.line_start = self.i + 1
            self.i += 1


def tokenize(text: str) -> list[Token]:
    """Tokenize ``text`` one character at a time."""
    if not isinstance(text, str):
        raise SqlError(f"SQL statement must be a string, not {type(text).__name__}")
    if len(text) > MAX_SQL_LENGTH:
        raise SqlError(
            f"SQL statement too long ({len(text)} characters; "
            f"limit {MAX_SQL_LENGTH})"
        )
    cur = _Cursor(text)
    tokens: list[Token] = []
    n = len(text)
    while cur.i < n:
        i = cur.i
        ch = text[i]
        if ch.isspace() and ch in " \t\r\n\f\v":
            cur.advance()
            continue
        if ord(ch) > 127:
            raise cur.error(f"non-ASCII character {ch!r} in SQL input")
        if ch == "-" and text[i:i + 2] == "--":  # line comment
            nl = text.find("\n", i)
            cur.advance((n if nl < 0 else nl) - i)
            continue
        if ch == "'":
            start = (cur.line, cur.column)
            start_pos = i
            cur.advance()
            parts: list[str] = []
            while True:
                if cur.i >= n:
                    raise cur.error("unterminated string literal", at=start)
                c = text[cur.i]
                if ord(c) > 127:
                    raise cur.error(f"non-ASCII character {c!r} in string literal")
                if c == "'":
                    if text[cur.i + 1:cur.i + 2] == "'":  # escaped quote
                        parts.append("'")
                        cur.advance(2)
                        continue
                    cur.advance()
                    break
                parts.append(c)
                cur.advance()
            tokens.append(Token("STRING", "".join(parts), start_pos,
                                start[0], start[1]))
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            start = (cur.line, cur.column)
            j = i
            seen_dot = False
            while j < n and (text[j].isdigit() or (text[j] == "." and not seen_dot)):
                if text[j] == ".":
                    seen_dot = True
                j += 1
            word = text[i:j]
            if len(word) > MAX_NUMBER_DIGITS:
                raise cur.error(
                    f"numeric literal too long ({len(word)} characters; "
                    f"limit {MAX_NUMBER_DIGITS})",
                    at=start,
                )
            tokens.append(Token("NUMBER", word, i, start[0], start[1]))
            cur.advance(j - i)
            continue
        if ch.isalpha() and ord(ch) < 128 or ch == "_":
            start = (cur.line, cur.column)
            j = i
            while j < n and (text[j].isalnum() and ord(text[j]) < 128 or text[j] == "_"):
                j += 1
            word = text[i:j]
            upper = word.upper()
            if upper in KEYWORDS:
                tokens.append(Token(upper, upper, i, start[0], start[1]))
            else:
                tokens.append(Token("IDENT", word, i, start[0], start[1]))
            cur.advance(j - i)
            continue
        two = text[i:i + 2]
        if two in _PUNCT:
            tokens.append(Token(_PUNCT[two], two, i, cur.line, cur.column))
            cur.advance(2)
            continue
        if ch in _PUNCT:
            tokens.append(Token(_PUNCT[ch], ch, i, cur.line, cur.column))
            cur.advance()
            continue
        raise cur.error(f"unexpected character {ch!r}")
    tokens.append(Token("EOF", "", n, cur.line, cur.column))
    return tokens
