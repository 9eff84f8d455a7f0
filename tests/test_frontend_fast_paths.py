"""Golden tests pinning the fast front end to the reference implementation.

The production tokenizer (:func:`repro.vhdl.lexer.tokenize`, one master
regex) must be indistinguishable from the original character-at-a-time
scanner (kept as ``tests/oracles/lexer.py``): identical
token streams — kinds, texts *and* positions — identical ASTs through the
parser, and identical errors (message and position) on every lexical
failure mode.  The inputs cover all eight paper workloads, the AES
generator sources, and the lexical edge cases (comments, character/string
literals, multi-line constructs).
"""

import pytest

from oracles.lexer import Lexer, tokenize_reference
from repro import workloads
from repro.aes.generator import aes_round_source, shift_rows_paper_source
from repro.errors import LexerError
from repro.vhdl.lexer import tokenize
from repro.vhdl.parser import Parser, parse_program
from repro.vhdl.stdlogic import STD_LOGIC_CHARS
from repro.vhdl.tokens import TokenKind

WORKLOAD_SOURCES = [
    pytest.param(source, id=name)
    for name, source in workloads.batch_workload_sources()
] + [
    pytest.param(shift_rows_paper_source(), id="aes-shiftrows"),
    pytest.param(aes_round_source(), id="aes-round"),
]

EDGE_CASES = [
    pytest.param("", id="empty"),
    pytest.param("-- only a comment, no newline", id="comment-only-no-newline"),
    pytest.param("-- line one\n-- line two\n", id="comment-only"),
    pytest.param("entity e is end; -- trailing comment", id="trailing-comment"),
    pytest.param("a := b; -- c := d;\ne <= f;", id="commented-out-code"),
    pytest.param("x := '1'; y := '0'; z := 'Z';", id="char-literals"),
    pytest.param(
        "v := " + " & ".join(f"'{c}'" for c in sorted(STD_LOGIC_CHARS)) + ";",
        id="all-std-logic-chars",
    ),
    pytest.param("v := 'z' & 'u' & 'x';", id="char-literal-lowercase"),
    pytest.param('v := "1010"; w := "zzzz";', id="string-literals"),
    pytest.param('v := "";', id="empty-string-literal"),
    pytest.param("IF A /= B THEN C := D; END IF;", id="uppercase-keywords"),
    pytest.param("a:=b;c<=d;e=>f", id="no-whitespace-operators"),
    pytest.param("x := 1 + 23 * 456 - 7890;", id="integers"),
    pytest.param(
        "if a = '1'\n   and b = '0'\nthen\n   c := d\n      + e;\nend if;",
        id="multi-line-statement",
    ),
    pytest.param("\n\n\n   a\t:=\r\n  b;\n\n", id="whitespace-shapes"),
    pytest.param("process (clk)\nbegin\n  wait on clk;\nend process;", id="process"),
]

ERROR_CASES = [
    pytest.param("a := ?;", id="unexpected-char"),
    pytest.param("a := $b;", id="unexpected-dollar"),
    pytest.param("a := '", id="char-eof-after-quote"),
    pytest.param("a := '1", id="char-eof-after-value"),
    pytest.param("a := '12';", id="char-too-long"),
    pytest.param("a := 'q';", id="char-not-std-logic"),
    pytest.param("a := ''; b := c;", id="char-empty"),
    pytest.param('a := "101', id="string-unterminated"),
    pytest.param('a := "10q0";', id="string-bad-char"),
    pytest.param('\n\n  x := "abc";', id="string-bad-char-position"),
]


def _stream(tokens):
    return [(token.kind, token.text, token.position) for token in tokens]


class TestGoldenTokenStreams:
    @pytest.mark.parametrize("source", WORKLOAD_SOURCES)
    def test_workload_token_streams_identical(self, source):
        assert _stream(tokenize(source)) == _stream(tokenize_reference(source))

    @pytest.mark.parametrize("source", EDGE_CASES)
    def test_edge_case_token_streams_identical(self, source):
        assert _stream(tokenize(source)) == _stream(tokenize_reference(source))

    @pytest.mark.parametrize("source", ERROR_CASES)
    def test_lexical_errors_identical(self, source):
        with pytest.raises(LexerError) as fast:
            tokenize(source)
        with pytest.raises(LexerError) as reference:
            tokenize_reference(source)
        assert str(fast.value) == str(reference.value)
        assert fast.value.position == reference.value.position

    def test_streams_end_with_eof(self):
        tokens = tokenize("entity e is end;")
        assert tokens[-1].kind is TokenKind.EOF
        assert tokens[-1].position == tokenize_reference("entity e is end;")[-1].position

    def test_identifiers_normalised_to_lower_case(self):
        (token, _) = tokenize("CamelCase")[:2]
        assert token.kind is TokenKind.IDENTIFIER
        assert token.text == "camelcase"

    def test_char_literal_value_normalised_to_upper_case(self):
        tokens = tokenize("'z'")
        assert tokens[0].kind is TokenKind.CHAR_LITERAL
        assert tokens[0].text == "Z"

    def test_reference_class_still_scans(self):
        # The oracle must stay importable and callable on its own.
        assert _stream(Lexer("a := b;").tokenize()) == _stream(tokenize("a := b;"))


class TestGoldenASTs:
    @pytest.mark.parametrize("source", WORKLOAD_SOURCES)
    def test_workload_asts_identical(self, source):
        via_fast = parse_program(source)
        via_reference = Parser(tokenize_reference(source)).parse_program()
        assert via_fast == via_reference

    def test_multi_entity_ast_identical(self):
        source = workloads.multi_entity_program(3, 2, 4)
        assert (
            parse_program(source)
            == Parser(tokenize_reference(source)).parse_program()
        )
