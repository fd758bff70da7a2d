"""Constant folding is pinned: folded trees, values and error messages.

``tests/data/fold_corpus.json`` holds what the evaluators produced before
``repro.easyml.ast_nodes.evaluate`` replaced them.  The first three keys
were written with the top-down folder (``fold`` re-evaluating every
subtree), ``inits`` and ``luts`` with the separate fold, ``try_eval`` and
NumPy walkers:

* ``zoo``: per zoo model (and Courtemanche with ``GKr`` promoted),
  sha256 of ``repr(IonicModel)``;
* ``expressions``: 600 seeded random expressions over constants, runtime
  names, a foreign call and every way a constant can fail (``1/0``,
  ``log(0)``, ``exp(1000)``, ``acos(2)``, ``fmod(x, 0)``), each with
  ``repr`` of its fold and the folded value, or the error's class and
  message;
* ``models``: small models whose constant errors reach ``analyze``, with
  the message it raises (which subtree a "fails to evaluate" names, and
  which errors an untaken constant branch keeps silent);
* ``inits``: small models whose ``_init`` assignment or declaration
  initializer takes ``try_eval``'s path (the whole initializer is named,
  and a runtime leaf met first makes it "not constant"), with the message
  or the initial values and parameters they analyze to;
* ``luts``: sha256 of every table ``build_all_luts`` tabulates for the zoo
  (and Courtemanche with ``GKr`` promoted) at dt 0.01 and 0.02, the NumPy
  evaluator's output.

Re-record (only for a deliberate language change) with
``PYTHONPATH=src python -m tests.pins --write --only fold_corpus``.
"""

import functools
import hashlib
import random

import pytest

from repro.easyml import EasyMLError, parse_model
from repro.frontend import analyze
from repro.frontend.preprocessor import Preprocessor
from repro.models import all_model_files, model_entry
from repro.runtime.lut_runtime import build_all_luts

from . import pins

CONSTANTS = {"a": 2.0, "b": 0.0, "c": -1.0, "big": 1e308}
FOREIGN = {"ext"}

_SKELETON = """
Vm; .external(); .nodal();
Iion; .external(); .nodal();
group{{ g = 1.0; z = 0.0; }}.param();
Vm_init = -80.0;
t = {expr};
diff_m = -m*g; m_init = 0.1;
Iion = g*m*Vm + t;
"""

MODELS = {
    "div_zero_first_names_the_sum": "(1/0) + Vm",
    "div_zero_second_names_the_quotient": "Vm + (1/0)",
    "param_div_zero": "g/z",
    "log_zero_in_call": "exp(log(z)) * Vm",
    "overflow_inside_product": "Vm * exp(1000*g)",
    "domain_error_nested": "Vm + 2*(1 + acos(2*g))",
    "fmod_zero": "(g % z) * Vm",
    "untaken_constant_branch_is_silent": "(g > 0) ? Vm : log(z)",
    "taken_constant_branch_fails": "(g < 0) ? Vm : log(z)",
    "runtime_condition_folds_both_branches": "(Vm > 0) ? Vm : log(z)",
    "failing_condition_names_the_ternary": "(log(z) > 0) ? Vm : 1",
    "failing_condition_under_runtime_sum": "Vm + ((log(z) > 0) ? Vm : 1)",
    "first_of_two_errors_wins": "Vm*(1/z) + Vm*log(z)",
    "error_after_runtime_lhs_in_call": "atan2(Vm, 1/z)",
    "error_before_runtime_arg_in_call": "atan2(1/z, Vm)",
    "short_circuit_still_evaluates": "(z && (1/z)) + Vm",
    "unknown_function": "frob(Vm) + 1/z",
}

_INIT_SKELETON = """
Vm; .external(); .nodal();
Iion; .external(); .nodal();
group{{ g = 1.0; z = 0.0; }}.param();
Vm_init = -80.0;
diff_m = -m*g;
Iion = g*m*Vm;
{stmt}
"""

INITS = {
    "runtime_leaf_first_is_not_constant": "m_init = Vm + 1/z;",
    "error_before_runtime_leaf_names_the_init": "m_init = 1/z + Vm;",
    "param_div_zero": "m_init = g/z;",
    "untaken_branch_is_silent": "m_init = (g > 0) ? 0.1 : log(z);",
    "taken_branch_fails": "m_init = (g < 0) ? 0.1 : log(z);",
    "nested_error_names_the_init": "m_init = 2*(1 + acos(2*g));",
    "intermediate_is_not_constant": "m_init = a; a = 2*g;",
    "foreign_call_in_init": "ext; .foreign(); m_init = ext(g);",
    "external_init_fails": "Iion_init = g/z;",
    "init_values": "m_init = (g > 0 && !z) ? floor(2.5) + g % 3 : 1;",
    "declaration_runtime_leaf": "k = Vm + 1/0; .param();",
    "declaration_div_zero": "k = 1/0; .param();",
    "declaration_reads_a_param": "k = 2*g; .param();",
    "declaration_value": "k = 2*exp(1) - (3 > 2) + pow(2, -1); .param();",
}


def _random_expr(rng: random.Random, depth: int) -> str:
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(["0", "1", "2", "0.5", "1000", "a", "b", "c",
                           "big", "x", "y", "x", "a", "b"])
    kind = rng.random()
    sub = lambda: _random_expr(rng, depth - 1)   # noqa: E731
    if kind < 0.45:
        op = rng.choice(["+", "-", "*", "/", "/", "%", "<", ">=", "==",
                         "!=", "&&", "||"])
        return f"({sub()} {op} {sub()})"
    if kind < 0.55:
        return f"{rng.choice(['-', '!'])}({sub()})"
    if kind < 0.85:
        fn = rng.choice(["exp", "log", "sqrt", "acos", "square", "fabs",
                         "pow", "atan2", "max", "ext"])
        arity = 2 if fn in ("pow", "atan2", "max", "ext") else 1
        return f"{fn}({', '.join(sub() for _ in range(arity))})"
    return f"({sub()} ? {sub()} : {sub()})"


def random_expressions(count: int = 600):
    rng = random.Random(20260)
    return [_random_expr(rng, rng.randint(1, 5)) for _ in range(count)]


def fold_outcome(text: str) -> list:
    expr = parse_model(f"t = {text};", "e").statements[0].expr
    pre = Preprocessor(CONSTANTS, foreign=FOREIGN)
    try:
        folded = pre.fold(expr)
    except EasyMLError as err:
        return [text, f"{type(err).__name__}: {err}"]
    return [text, repr(folded), repr(pre.try_eval(folded))]


def outcome(source: str, show=lambda model: "analyzed") -> str:
    try:
        model = analyze(parse_model(source, "m"))
    except EasyMLError as err:
        return f"{type(err).__name__}: {err}"
    return show(model)


def model_message(expr: str) -> str:
    return outcome(_SKELETON.format(expr=expr))


def init_outcome(stmt: str) -> str:
    return outcome(_INIT_SKELETON.format(stmt=stmt), lambda model: repr(
        (model.init_values, model.external_init, model.params)))


@functools.lru_cache(maxsize=1)
def zoo_models() -> dict:
    models = {name: analyze(parse_model(model_entry(name).path.read_text(),
                                        name))
              for name in all_model_files()}
    text = model_entry("Courtemanche").path.read_text()
    models["Courtemanche+GKr"] = analyze(
        parse_model(text, "Courtemanche"), promote_params=("GKr",))
    return models


def zoo_digests() -> dict:
    return {k: hashlib.sha256(repr(v).encode()).hexdigest()
            for k, v in zoo_models().items()}


def lut_digests() -> dict:
    digests = {}
    for name, model in zoo_models().items():
        for dt in (0.01, 0.02):
            for lut in build_all_luts(model, dt):
                digest = hashlib.sha256(repr(
                    (lut.lo, lut.step, lut.column_names)).encode())
                digest.update(lut.values.tobytes())
                digests[f"{name}@{dt}:{lut.var}"] = digest.hexdigest()
    return digests


def record() -> dict:
    return {"zoo": zoo_digests(),
            "expressions": [fold_outcome(t) for t in random_expressions()],
            "models": {k: model_message(v) for k, v in MODELS.items()},
            "inits": {k: init_outcome(v) for k, v in INITS.items()},
            "luts": lut_digests()}


@pytest.fixture(scope="module")
def recorded():
    return pins.read("fold_corpus")


def test_record_exercises_errors_and_silence(recorded):
    assert len(recorded["zoo"]) == 48
    outcomes = [o[1] for o in recorded["expressions"]]
    assert sum(o.startswith("SemanticError") for o in outcomes) > 50
    assert sum(not o.startswith("SemanticError") for o in outcomes) > 300
    models = recorded["models"]
    assert set(models) == set(MODELS)
    assert models["untaken_constant_branch_is_silent"] == "analyzed"
    assert "((1.0 / 0.0) + Vm)" in \
        models["div_zero_first_names_the_sum"]
    inits = recorded["inits"]
    assert set(inits) == set(INITS)
    assert "((1.0 / z) + Vm)" in \
        inits["error_before_runtime_leaf_names_the_init"]
    assert inits["runtime_leaf_first_is_not_constant"].endswith(
        "m_init must be a constant expression")
    assert len(recorded["luts"]) == 80       # 40 tables, two time steps


def test_zoo_models_analyze_to_the_record(recorded):
    assert zoo_digests() == recorded["zoo"]


def test_random_expressions_fold_to_the_record(recorded):
    texts = [o[0] for o in recorded["expressions"]]
    assert [fold_outcome(t) for t in texts] == recorded["expressions"]


@pytest.mark.parametrize("case", sorted(MODELS))
def test_constant_error_message_matches_the_record(recorded, case):
    assert model_message(MODELS[case]) == recorded["models"][case]


@pytest.mark.parametrize("case", sorted(INITS))
def test_initializer_outcome_matches_the_record(recorded, case):
    assert init_outcome(INITS[case]) == recorded["inits"][case]


def test_zoo_lut_tables_match_the_record(recorded):
    assert lut_digests() == recorded["luts"]
