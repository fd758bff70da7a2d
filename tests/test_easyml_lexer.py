"""Lexer tests for EasyML."""

import pytest

from repro.easyml import LexerError, Token, TokenKind, tokenize


def kinds(source):
    return [t.kind for t in tokenize(source)][:-1]  # drop EOF


def texts(source):
    return [t.text for t in tokenize(source)][:-1]


class TestBasicTokens:
    def test_identifier(self):
        assert kinds("Vm") == [TokenKind.IDENT]

    def test_identifier_with_underscore_and_digits(self):
        assert texts("diff_u1 _x a9") == ["diff_u1", "_x", "a9"]

    def test_keywords(self):
        assert kinds("if else group") == [TokenKind.IF, TokenKind.ELSE,
                                          TokenKind.GROUP]

    def test_keyword_prefix_is_identifier(self):
        assert kinds("iffy grouped elsewhere") == [TokenKind.IDENT] * 3

    def test_operators(self):
        assert kinds("+ - * / % = ; , . ( ) { } ? :") == [
            TokenKind.PLUS, TokenKind.MINUS, TokenKind.STAR,
            TokenKind.SLASH, TokenKind.PERCENT, TokenKind.ASSIGN,
            TokenKind.SEMI, TokenKind.COMMA, TokenKind.DOT,
            TokenKind.LPAREN, TokenKind.RPAREN, TokenKind.LBRACE,
            TokenKind.RBRACE, TokenKind.QUESTION, TokenKind.COLON]

    def test_comparisons(self):
        assert kinds("< <= > >= == !=") == [
            TokenKind.LT, TokenKind.LE, TokenKind.GT, TokenKind.GE,
            TokenKind.EQ, TokenKind.NE]

    def test_logical(self):
        assert kinds("&& || ! and or not") == [
            TokenKind.AND, TokenKind.OR, TokenKind.NOT, TokenKind.AND,
            TokenKind.OR, TokenKind.NOT]

    def test_eof_token_present(self):
        assert tokenize("x")[-1].kind is TokenKind.EOF
        assert tokenize("")[-1].kind is TokenKind.EOF


class TestNumbers:
    @pytest.mark.parametrize("literal,value", [
        ("1", 1.0), ("1.5", 1.5), (".5", 0.5), ("2.", 2.0),
        ("1e3", 1000.0), ("1.5e-2", 0.015), ("2.5E+4", 25000.0),
        ("0.0000001", 1e-7),
    ])
    def test_literal_values(self, literal, value):
        token = tokenize(literal)[0]
        assert token.kind is TokenKind.NUMBER
        assert token.number_value == value

    def test_negative_is_two_tokens(self):
        assert kinds("-1") == [TokenKind.MINUS, TokenKind.NUMBER]

    def test_number_value_on_non_number_raises(self):
        with pytest.raises(ValueError):
            tokenize("x")[0].number_value

    def test_dot_not_followed_by_digit_is_dot(self):
        # '.external' must lex as DOT + IDENT, not a number
        assert kinds(".external") == [TokenKind.DOT, TokenKind.IDENT]


class TestComments:
    def test_line_comment_slash(self):
        assert texts("x // comment\ny") == ["x", "y"]

    def test_line_comment_hash(self):
        assert texts("x # comment\ny") == ["x", "y"]

    def test_block_comment(self):
        assert texts("x /* multi\nline */ y") == ["x", "y"]

    def test_unterminated_block_comment(self):
        with pytest.raises(LexerError):
            tokenize("x /* never closed")

    def test_comment_at_end_without_newline(self):
        assert texts("x // trailing") == ["x"]


class TestPositions:
    def test_line_and_column_tracking(self):
        tokens = tokenize("a\n  b")
        assert (tokens[0].line, tokens[0].column) == (1, 1)
        assert (tokens[1].line, tokens[1].column) == (2, 3)

    def test_error_carries_position(self):
        with pytest.raises(LexerError) as err:
            tokenize("x\n  $")
        assert "2:3" in str(err.value)

    def test_non_ascii_letter_is_a_positioned_lexer_error(self):
        # 'é'.isalpha() holds but no identifier starts with it
        with pytest.raises(LexerError) as err:
            tokenize("é = 1;")
        assert str(err.value) == "<model>:1:1: unexpected character 'é'"
        with pytest.raises(LexerError) as err:
            tokenize("a = 1;\nb = ²;", "m.model")
        assert str(err.value) == "m.model:2:5: unexpected character '²'"

    def test_a_tab_is_one_column(self):
        with pytest.raises(LexerError) as err:
            tokenize("a = 1;\n\t\tb = 2 @ 3;")
        assert (err.value.line, err.value.column) == (2, 9)
        assert tokenize("\tx")[0].column == 2

    def test_multiline_comment_and_string_advance_the_line(self):
        tokens = tokenize('/* a\nb\n*/ x "s\nt" y')
        assert [(t.text, t.line, t.column) for t in tokens] == [
            ("x", 3, 4), ("s\nt", 3, 6), ("y", 4, 4), ("", 4, 5)]


class TestStrings:
    def test_string_literal(self):
        token = tokenize('"mV"')[0]
        assert token.kind is TokenKind.STRING
        assert token.text == "mV"

    def test_unterminated_string(self):
        with pytest.raises(LexerError):
            tokenize('"open')


class TestRealisticSource:
    def test_listing1_line(self):
        source = "Vm; .external(); .nodal(); .lookup(-100,100,0.05);"
        token_kinds = kinds(source)
        assert token_kinds[0] is TokenKind.IDENT
        assert TokenKind.DOT in token_kinds
        assert token_kinds.count(TokenKind.SEMI) == 4

    def test_whole_model_tokenizes(self, hodgkin_huxley):
        from repro.models import model_entry
        source = model_entry("HodgkinHuxley").path.read_text()
        tokens = tokenize(source)
        assert len(tokens) > 100
        assert tokens[-1].kind is TokenKind.EOF
