"""Token streams, ASTs and error messages are pinned, zoo-wide.

``tests/data/easyml_streams.json`` was written with the character-walking
lexer and the eight-level descent parser the one-regex tokenizer and the
precedence loop replaced: per model, sha256 of the ``(kind, text, line,
column)`` stream and of ``repr(ast.statements)``, plus the class and
message of every malformed input below.  Re-record (only for a deliberate
language change) with ``python -m tests.test_easyml_streams``.

The zoo does not spell every construct the grammar has, so the record
also holds a seeded corpus of generated statements (:func:`corpus`,
written with the Token-tuple lexer and the ``TokenKind`` parser the
flat-list scan and parser replaced): every precedence level, ``^`` under
unary minus, prefix chains, keyword operators, nested ternaries, ``else
if`` chains, group and trailing markups with every argument form, every
number spelling and all three comment forms, each with its token-stream
and AST digests.  The last seven malformed inputs (non-ASCII lexemes,
nesting past ``MAX_DEPTH``) were recorded with the scan that rejects
them; the lexer before it read them as names and numbers, or overflowed
the stack.
"""

import hashlib
import json
import pathlib
import random

import pytest

from repro.easyml import EasyMLError, parse_model, tokenize
from repro.models import all_model_files, model_entry

RECORD = pathlib.Path(__file__).parent / "data" / "easyml_streams.json"

MALFORMED = {
    "unterminated_comment": "a = 1;\n/* never closed\nb = 2;",
    "unterminated_comment_after_tab": "a = 1;\n\t/* never closed",
    "unterminated_string": 'x; .units("mV);\n',
    "stray_character_line_3": "a = 1;\nb = 2;\nc = a @ b;\n",
    "stray_character_after_comment": "/* two\nlines */ $",
    "lone_ampersand": "a = b & c;",
    "missing_operand": "a = (1 + ;",
    "unclosed_group": "group { a; b = 2;",
    "unclosed_paren_at_eof": "a = (1 + 2",
    "missing_semicolon": "a = 1\nb = 2;",
    "bad_markup_argument": "Vm; .lookup(-x);",
    "else_without_if": "else { a = 1; }",
    "dangling_ternary": "a = b ? c;",
    "number_then_letter": "a = 1.5.2;",
    # identifiers and numbers are ASCII; comments and strings are not
    "superscript_after_identifier": "a = x\u00b2;",
    "accent_after_identifier": "a = x\u00e9;",
    "arabic_indic_digit": "a = \u0663;",
    "arabic_indic_digit_after_digit": "a = 1\u0663;",
    # one past MAX_DEPTH, and the shapes that used to overflow the stack
    "parens_past_the_limit": "a = " + "(" * 101 + "Vm" + ")" * 101 + ";",
    "parens_200_deep": "a = " + "(" * 200 + "Vm" + ")" * 200 + ";",
    "chain_of_1000_terms": "a = " + " - ".join(["Vm"] * 1000) + ";",
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def model_digests(name: str) -> dict:
    text = model_entry(name).path.read_text()
    stream = [(t.kind.name, t.text, t.line, t.column)
              for t in tokenize(text, name)]
    return {"tokens": _sha(repr(stream)),
            "ast": _sha(repr(parse_model(text, name).statements))}


def malformed_message(source: str) -> str:
    try:
        parse_model(source, "bad", "bad.model")
    except EasyMLError as err:
        return f"{type(err).__name__}: {err}"
    return "parsed"


# -- the generated corpus -------------------------------------------------------

CORPUS_SEED = 20261017
CORPUS_SIZE = 400

#: every binary spelling, loosest level first (``^`` is the ``pow`` call)
_BINARY_LEVELS = (("||", "or"), ("&&", "and"), ("==", "!="),
                  ("<", "<=", ">", ">="), ("+", "-"), ("*", "/", "%"))
_NUMBERS = ("0", "1", "42", "1.", "2.", ".5", ".25", "1.5", "0.001",
            "1e3", "1.e2", "2.5E+4", "3e-3", "6.02E23", "1.5e-2", "10.e-1")
_NAMES = ("Vm", "x", "y", "z", "a_1", "_t", "Ca_i", "alpha_m", "diff_u",
          "iffy", "grouped", "nota", "orb", "andx")
_CALLS = (("exp", 1), ("log", 1), ("sqrt", 1), ("pow", 2), ("tanh", 1),
          ("square", 1), ("min", 2), ("atan2", 2), ("expm1", 1))
_COMMENTS = ("// line comment\n", "# hash comment\n",
             "/* block */", "/* two\n lines § */", "//\n", "#\n")
_MARKUPS = ("external()", "nodal()", "param()", "lookup(-100, 100, 0.05)",
            "lookup(-80,60,.5)", "units(mV)", "units(\"uA/uF\")",
            "method(rk2)", "method(\"rush_larsen\")", "trace()",
            "regional()", "lookup(-1.e2, 1E+2, 1.)", "store(-3)",
            "custom(a, -2.5E+4, \"s t\")")


class _Corpus:
    """Random EasyML statements from one seeded generator."""

    def __init__(self, rng: random.Random):
        self.rng = rng

    def gap(self) -> str:
        """Whitespace between two tokens, now and then a comment."""
        roll = self.rng.random()
        if roll < 0.06:
            return " " + self.rng.choice(_COMMENTS) + " "
        if roll < 0.12:
            return self.rng.choice(("\n", "\t", "\r\n  ", "  "))
        return self.rng.choice((" ", "", " "))

    def leaf(self) -> str:
        roll = self.rng.random()
        if roll < 0.4:
            return self.rng.choice(_NUMBERS)
        return self.rng.choice(_NAMES)

    def expr(self, depth: int) -> str:
        if depth <= 0:
            return self.leaf()
        g, roll = self.gap, self.rng.random()
        if roll < 0.35:
            op = self.rng.choice(self.rng.choice(_BINARY_LEVELS))
            if op.isalpha():
                op = f" {op} "
            return self.expr(depth - 1) + g() + op + g() + self.expr(depth - 1)
        if roll < 0.45:
            prefix = "".join(self.rng.choice(("-", "+", "!", "not "))
                             for _ in range(self.rng.randint(1, 3)))
            return prefix + g() + self.expr(depth - 1)
        if roll < 0.55:
            # ``^`` is right associative and binds tighter than unary minus
            chain = [self.rng.choice(("", "-", "-", "+"))
                     + self.rng.choice(("", "-")) + self.expr(0)
                     for _ in range(self.rng.randint(2, 3))]
            return "^".join(chain)
        if roll < 0.65:
            return (self.expr(depth - 1) + g() + "?" + g()
                    + self.expr(depth - 1) + g() + ":" + g()
                    + self.expr(depth - 1))
        if roll < 0.75:
            callee, arity = self.rng.choice(_CALLS)
            args = ("," + g()).join(self.expr(depth - 1)
                                    for _ in range(arity))
            return f"{callee}({g()}{args}{g()})"
        if roll < 0.85:
            return "(" + g() + self.expr(depth - 1) + g() + ")"
        return self.leaf()

    def markups(self, glue: str) -> str:
        count = self.rng.randint(1, 3)
        return glue.join("." + self.rng.choice(_MARKUPS)
                         for _ in range(count))

    def block(self, depth: int) -> str:
        if self.rng.random() < 0.25:
            return self.assign(depth)          # a braceless body
        body = " ".join(self.stmt(depth) for _ in range(self.rng.randint(1, 2)))
        return "{" + self.gap() + body + self.gap() + "}"

    def assign(self, depth: int) -> str:
        return (self.rng.choice(_NAMES) + self.gap() + "=" + self.gap()
                + self.expr(self.rng.randint(1, 3)) + ";")

    def if_chain(self, depth: int) -> str:
        text = f"if ({self.expr(2)}) {self.block(depth - 1)}"
        for _ in range(self.rng.randint(0, 2) if depth > 1 else 0):
            text += f" else if ({self.expr(2)}) {self.block(depth - 1)}"
        if self.rng.random() < 0.6:
            text += f" else {self.block(depth - 1)}"
        return text

    def stmt(self, depth: int) -> str:
        roll = self.rng.random()
        if roll < 0.35 or depth <= 0:
            return self.assign(depth)
        if roll < 0.5:
            name = self.rng.choice(_NAMES)
            init = (" = " + self.expr(2)) if self.rng.random() < 0.5 else ""
            return f"{name}{init};{self.gap()}" + self.markups("; ") + ";"
        if roll < 0.65:
            members = " ".join(
                self.rng.choice(_NAMES)
                + (" = " + self.expr(1) if self.rng.random() < 0.4 else "")
                + ";" for _ in range(self.rng.randint(1, 4)))
            glue = self.rng.choice(("", " ", "\n"))
            return "group {" + members + "}" + self.markups(glue) + ";"
        return self.if_chain(depth)


def corpus() -> list:
    """``CORPUS_SIZE`` generated statements from ``CORPUS_SEED``."""
    gen = _Corpus(random.Random(CORPUS_SEED))
    return [gen.stmt(2) for _ in range(CORPUS_SIZE)]


def source_digests(text: str) -> dict:
    stream = [(t.kind.name, t.text, t.line, t.column)
              for t in tokenize(text)]
    return {"tokens": _sha(repr(stream)),
            "ast": _sha(repr(parse_model(text).statements))}


def record() -> dict:
    return {"models": {n: model_digests(n) for n in all_model_files()},
            "malformed": {k: malformed_message(s)
                          for k, s in MALFORMED.items()},
            "corpus": [{"source": text, **source_digests(text)}
                       for text in corpus()]}


@pytest.fixture(scope="module")
def recorded():
    return json.loads(RECORD.read_text())


def test_record_covers_the_zoo_and_every_malformed_input(recorded):
    assert set(recorded["models"]) == set(all_model_files())
    assert len(recorded["models"]) == 47
    assert set(recorded["malformed"]) == set(MALFORMED)
    assert "parsed" not in recorded["malformed"].values()


@pytest.mark.parametrize("name", all_model_files())
def test_token_stream_and_ast_match_the_record(recorded, name):
    assert model_digests(name) == recorded["models"][name]


def test_corpus_is_the_seeded_one_and_spells_every_construct(recorded):
    sources = [entry["source"] for entry in recorded["corpus"]]
    assert sources == corpus()
    text = "\n".join(sources)
    for spelling in ("||", " or", "&&", " and", "==", "!=", "<=", ">=",
                     "%", "not ", "!", "-x^", "^-", "? (", "else if",
                     "group {", "}.", "(-", "(\"", "(rk2)", "1.e2",
                     "2.5E+4", " .5", "1.", "//", "#", "/*"):
        assert spelling in text, spelling


def test_corpus_token_streams_and_asts_match_the_record(recorded):
    moved = [i for i, entry in enumerate(recorded["corpus"])
             if source_digests(entry["source"]) != {
                 "tokens": entry["tokens"], "ast": entry["ast"]}]
    assert not moved, (f"{len(moved)} of {len(recorded['corpus'])} moved, "
                       f"first: {recorded['corpus'][moved[0]]['source']!r}")


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_message_matches_the_record(recorded, case):
    assert malformed_message(MALFORMED[case]) == recorded["malformed"][case]


if __name__ == "__main__":
    RECORD.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {RECORD}")
