"""Lexer for the VHDL1 concrete syntax.

The lexer recognises VHDL's ``--`` line comments, identifiers (case
insensitive, normalised to lower case), integer literals, character literals
(``'1'``) and string literals (``"1010"``), plus the punctuation and operators
used by the VHDL1 grammar.

:func:`tokenize` is a single pass driven by one precompiled master regex that
consumes whitespace runs, comments, identifiers, integers and operators in
whole-slice matches (character and string literals, which carry their own
error cases, are handled by two small dedicated paths).  Identifier/keyword
classification is one ``str.lower()`` on the matched slice plus a frozenset
lookup, and operator kinds come from a precompiled text → kind table.
Positions are tracked as (line, offset-of-line-start), so a token's column is
one subtraction instead of a per-character counter.

The original character-at-a-time scanner is kept as a test oracle
(``tests/oracles/lexer.py``); ``tests/test_frontend_fast_paths.py`` asserts
both produce identical token streams (kinds, texts, positions) and identical
errors over the paper workloads and the lexical edge cases.  The regex
scanner restricts identifiers and integers to ASCII
(``[A-Za-z_][A-Za-z0-9_]*`` / ``[0-9]+``), which is the entire VHDL1
character set; the reference scanner's ``str.isalpha`` accepted a wider
Unicode range that no valid input ever used.
"""

from __future__ import annotations

import re
from typing import List

from repro.errors import LexerError, SourcePosition
from repro.vhdl.stdlogic import STD_LOGIC_CHARS
from repro.vhdl.tokens import KEYWORDS, Token, TokenKind

_SINGLE_CHAR_TOKENS = {
    ";": TokenKind.SEMICOLON,
    ",": TokenKind.COMMA,
    "(": TokenKind.LPAREN,
    ")": TokenKind.RPAREN,
    "+": TokenKind.PLUS,
    "-": TokenKind.MINUS,
    "*": TokenKind.STAR,
    "&": TokenKind.AMPERSAND,
    "=": TokenKind.EQ,
}

_VALID_STRING_CHARS = set(STD_LOGIC_CHARS) | {c.lower() for c in STD_LOGIC_CHARS}

#: Operator text → token kind, multi-character operators included.
_OPERATOR_KINDS = {
    ":=": TokenKind.ASSIGN_VAR,
    "<=": TokenKind.ASSIGN_SIG,
    ">=": TokenKind.GE,
    "/=": TokenKind.NEQ,
    "=>": TokenKind.ARROW,
    ":": TokenKind.COLON,
    "<": TokenKind.LT,
    ">": TokenKind.GT,
    "/": TokenKind.SLASH,
    **_SINGLE_CHAR_TOKENS,
}

#: The master scanner.  Alternatives without a named group (whitespace runs
#: and comments) are skipped; named groups dispatch to one slice-level
#: handler each.  Multi-character operators precede their one-character
#: prefixes so ``:=`` never scans as ``:`` ``=``.
_TOKEN_PATTERN = re.compile(
    r"""[ \t\r\n]+
      | --[^\n]*
      | (?P<id>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<int>[0-9]+)
      | (?P<op>:=|<=|>=|/=|=>|[;,()+\-*&=:</>])
    """,
    re.VERBOSE,
)


def tokenize(source: str) -> List[Token]:
    """Tokenise ``source`` and return the token list (ending with ``EOF``)."""
    tokens: List[Token] = []
    append = tokens.append
    match = _TOKEN_PATTERN.match
    length = len(source)
    pos = 0
    line = 1
    line_start = 0
    keywords = KEYWORDS
    operator_kinds = _OPERATOR_KINDS
    keyword_kind = TokenKind.KEYWORD
    identifier_kind = TokenKind.IDENTIFIER
    integer_kind = TokenKind.INTEGER

    while pos < length:
        matched = match(source, pos)
        if matched is not None:
            group = matched.lastgroup
            end = matched.end()
            if group is None:
                # whitespace run or comment; only whitespace holds newlines
                text = source[pos:end]
                newlines = text.count("\n")
                if newlines:
                    line += newlines
                    line_start = pos + text.rindex("\n") + 1
                pos = end
                continue
            position = SourcePosition(line, pos - line_start + 1)
            text = source[pos:end]
            if group == "id":
                text = text.lower()
                append(
                    Token(
                        keyword_kind if text in keywords else identifier_kind,
                        text,
                        position,
                    )
                )
            elif group == "int":
                append(Token(integer_kind, text, position))
            else:
                append(Token(operator_kinds[text], text, position))
            pos = end
            continue

        char = source[pos]
        position = SourcePosition(line, pos - line_start + 1)
        if char == "'":
            # character literal: opening quote, one value char, closing quote
            if pos + 2 >= length or source[pos + 2] != "'":
                raise LexerError("unterminated character literal", position)
            value = source[pos + 1]
            normalized = value.upper() if value.upper() in STD_LOGIC_CHARS else value
            if normalized not in STD_LOGIC_CHARS:
                raise LexerError(
                    f"character literal {value!r} is not a std_logic value", position
                )
            append(Token(TokenKind.CHAR_LITERAL, normalized, position))
            pos += 3
            continue
        if char == '"':
            end = source.find('"', pos + 1)
            if end == -1:
                raise LexerError("unterminated string literal", position)
            text = source[pos + 1 : end]
            if not _VALID_STRING_CHARS.issuperset(text):
                for ch in text:
                    if ch not in _VALID_STRING_CHARS:
                        raise LexerError(
                            "string literal contains non-std_logic character "
                            f"{ch!r}",
                            position,
                        )
            append(Token(TokenKind.STRING_LITERAL, text.upper(), position))
            pos = end + 1
            continue
        raise LexerError(f"unexpected character {char!r}", position)

    append(Token(TokenKind.EOF, "", SourcePosition(line, length - line_start + 1)))
    return tokens
