"""The character-at-a-time reference scanner for :func:`repro.vhdl.lexer.tokenize`.

This is the original lexer, kept verbatim apart from its imports; the shipped
scanner is regex-driven and must produce identical token streams and errors.
"""

from __future__ import annotations

from typing import List

from repro.errors import LexerError, SourcePosition
from repro.vhdl.lexer import _SINGLE_CHAR_TOKENS, _VALID_STRING_CHARS
from repro.vhdl.stdlogic import STD_LOGIC_CHARS
from repro.vhdl.tokens import KEYWORDS, Token, TokenKind


class Lexer:
    """The character-at-a-time reference scanner.

    Kept byte-for-byte compatible with the original implementation;
    :func:`tokenize_reference` runs it.  The shipped scanner is the
    regex-driven :func:`repro.vhdl.lexer.tokenize`.
    """

    def __init__(self, source: str):
        self._source = source
        self._length = len(source)
        self._index = 0
        self._line = 1
        self._column = 1

    # -- character-level helpers ---------------------------------------------

    def _position(self) -> SourcePosition:
        return SourcePosition(self._line, self._column)

    def _peek(self, offset: int = 0) -> str:
        index = self._index + offset
        if index >= self._length:
            return ""
        return self._source[index]

    def _advance(self) -> str:
        char = self._source[self._index]
        self._index += 1
        if char == "\n":
            self._line += 1
            self._column = 1
        else:
            self._column += 1
        return char

    def _at_end(self) -> bool:
        return self._index >= self._length

    # -- token-level scanning ---------------------------------------------------

    def tokenize(self) -> List[Token]:
        """Scan the whole input and return its tokens, ending with ``EOF``."""
        tokens: List[Token] = []
        while not self._at_end():
            char = self._peek()
            if char in " \t\r\n":
                self._advance()
                continue
            if char == "-" and self._peek(1) == "-":
                self._skip_comment()
                continue
            tokens.append(self._next_token())
        tokens.append(Token(TokenKind.EOF, "", self._position()))
        return tokens

    def _skip_comment(self) -> None:
        while not self._at_end() and self._peek() != "\n":
            self._advance()

    def _next_token(self) -> Token:
        position = self._position()
        char = self._peek()

        if char.isalpha() or char == "_":
            return self._scan_identifier(position)
        if char.isdigit():
            return self._scan_integer(position)
        if char == "'":
            return self._scan_char_literal(position)
        if char == '"':
            return self._scan_string_literal(position)

        # multi-character operators
        if char == ":":
            self._advance()
            if self._peek() == "=":
                self._advance()
                return Token(TokenKind.ASSIGN_VAR, ":=", position)
            return Token(TokenKind.COLON, ":", position)
        if char == "<":
            self._advance()
            if self._peek() == "=":
                self._advance()
                return Token(TokenKind.ASSIGN_SIG, "<=", position)
            return Token(TokenKind.LT, "<", position)
        if char == ">":
            self._advance()
            if self._peek() == "=":
                self._advance()
                return Token(TokenKind.GE, ">=", position)
            return Token(TokenKind.GT, ">", position)
        if char == "/":
            self._advance()
            if self._peek() == "=":
                self._advance()
                return Token(TokenKind.NEQ, "/=", position)
            return Token(TokenKind.SLASH, "/", position)
        if char == "=":
            self._advance()
            if self._peek() == ">":
                self._advance()
                return Token(TokenKind.ARROW, "=>", position)
            return Token(TokenKind.EQ, "=", position)

        if char in _SINGLE_CHAR_TOKENS:
            self._advance()
            return Token(_SINGLE_CHAR_TOKENS[char], char, position)

        raise LexerError(f"unexpected character {char!r}", position)

    def _scan_identifier(self, position: SourcePosition) -> Token:
        chars: List[str] = []
        while not self._at_end() and (self._peek().isalnum() or self._peek() == "_"):
            chars.append(self._advance())
        text = "".join(chars).lower()
        kind = TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENTIFIER
        return Token(kind, text, position)

    def _scan_integer(self, position: SourcePosition) -> Token:
        chars: List[str] = []
        while not self._at_end() and self._peek().isdigit():
            chars.append(self._advance())
        return Token(TokenKind.INTEGER, "".join(chars), position)

    def _scan_char_literal(self, position: SourcePosition) -> Token:
        self._advance()  # opening quote
        if self._at_end():
            raise LexerError("unterminated character literal", position)
        value = self._advance()
        if self._at_end() or self._peek() != "'":
            raise LexerError("unterminated character literal", position)
        self._advance()  # closing quote
        normalized = value.upper() if value.upper() in STD_LOGIC_CHARS else value
        if normalized not in STD_LOGIC_CHARS:
            raise LexerError(
                f"character literal {value!r} is not a std_logic value", position
            )
        return Token(TokenKind.CHAR_LITERAL, normalized, position)

    def _scan_string_literal(self, position: SourcePosition) -> Token:
        self._advance()  # opening quote
        chars: List[str] = []
        while not self._at_end() and self._peek() != '"':
            chars.append(self._advance())
        if self._at_end():
            raise LexerError("unterminated string literal", position)
        self._advance()  # closing quote
        text = "".join(chars)
        for ch in text:
            if ch not in _VALID_STRING_CHARS:
                raise LexerError(
                    f"string literal contains non-std_logic character {ch!r}", position
                )
        return Token(TokenKind.STRING_LITERAL, text.upper(), position)


def tokenize_reference(source: str) -> List[Token]:
    """Tokenise with the reference scanner (the golden-test oracle)."""
    return Lexer(source).tokenize()
