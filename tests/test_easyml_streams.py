"""Token streams, ASTs and error messages are pinned, zoo-wide.

``tests/data/easyml_streams.json`` was written with the character-walking
lexer and the eight-level descent parser the one-regex tokenizer and the
precedence loop replaced: per model, sha256 of the ``(kind, text, line,
column)`` stream and of ``repr(ast.statements)``, plus the class and
message of every malformed input below.  Re-record (only for a deliberate
language change) with ``python -m tests.test_easyml_streams``.
"""

import hashlib
import json
import pathlib

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


def record() -> dict:
    return {"models": {n: model_digests(n) for n in all_model_files()},
            "malformed": {k: malformed_message(s)
                          for k, s in MALFORMED.items()}}


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


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_message_matches_the_record(recorded, case):
    assert malformed_message(MALFORMED[case]) == recorded["malformed"][case]


if __name__ == "__main__":
    RECORD.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {RECORD}")
