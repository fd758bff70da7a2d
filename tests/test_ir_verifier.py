"""Verifier tests: each structural invariant has a failing case.

``tests/data/verifier_corpus.json`` pins what the verifier says about
seeded structural mutations of five representative zoo modules (see
``mutate``).  It was written with the verifier that copied its visible
set for every nested block, so a scoped set that leaks or drops a value
shows up as a changed or missing message.  Re-record (only for a
deliberate change of a message) with
``PYTHONPATH=src python -m tests.pins --write --only verifier_corpus``.
"""

import functools
import random

import pytest

from repro.aot.build import default_kernel
from repro.ir import (IRBuilder, build_module, parse_module, print_module,
                      verify_module)
from repro.ir.core import Block, Operation, OpResult
from repro.ir.dialects import arith, func
from repro.ir.types import (FunctionType, IntegerType, f64, i1, index,
                            vector_of)
from repro.ir.verifier import VerificationError, verify_op_isolated
from repro.models import load_model

from . import pins
from .pins import TIER1_MODELS


def empty_func(module, name="f", inputs=(), results=()):
    return func.func(module, name, list(inputs), list(results))


class TestModuleVerification:
    def test_valid_module_passes(self):
        module, _ = build_module()
        fn = empty_func(module)
        IRBuilder(fn.entry).create("func.return", [], [])
        verify_module(module)

    def test_unregistered_op_rejected(self):
        module, _ = build_module()
        fn = empty_func(module)
        b = IRBuilder(fn.entry)
        b.create("made.up", [], [])
        b.create("func.return", [], [])
        with pytest.raises(VerificationError, match="unregistered"):
            verify_module(module)

    def test_unregistered_op_allowed_with_flag(self):
        module, _ = build_module()
        fn = empty_func(module)
        b = IRBuilder(fn.entry)
        b.create("made.up", [], [])
        b.create("func.return", [], [])
        verify_module(module, allow_unregistered=True)

    def test_use_before_def_rejected(self):
        module, _ = build_module()
        fn = empty_func(module)
        block = fn.entry
        b = IRBuilder(block)
        late = Operation("arith.constant", [], [f64], {"value": 1.0})
        use = Operation("arith.negf", [late.result], [f64])
        block.append(use)
        block.append(late)
        b.create("func.return", [], [])
        with pytest.raises(VerificationError, match="define-before-use"):
            verify_module(module)

    def test_value_from_sibling_region_rejected(self):
        # a value defined in one op's body is not visible in the body of
        # the op after it; unregistered ops hold the bodies, since the
        # scoping rule is the verifier's, not an op's
        module, _ = build_module()
        fn = empty_func(module)
        b = IRBuilder(fn.entry)
        first, second = Block(), Block()
        b.create("test.body", body=first)
        b.create("test.body", body=second)
        with b.at_end_of(first):
            leaked = b.constant(1.0, f64)
        with b.at_end_of(second):
            b.create("arith.negf", [leaked], [f64])
        b.create("func.return", [], [])
        with pytest.raises(VerificationError, match="define-before-use"):
            verify_module(module, allow_unregistered=True)

    def test_terminator_must_be_last(self):
        module, _ = build_module()
        fn = empty_func(module)
        b = IRBuilder(fn.entry)
        b.create("func.return", [], [])
        b.constant(1.0, f64)
        with pytest.raises(VerificationError, match="terminator"):
            verify_module(module)


class TestPerOpVerifiers:
    def test_addf_type_mismatch(self):
        block = Block([f64, index])
        op = Operation("arith.addf", list(block.args), [f64])
        with pytest.raises(Exception, match="mismatched"):
            verify_op_isolated(op)

    def test_addf_rejects_integers(self):
        block = Block([index, index])
        op = Operation("arith.addf", list(block.args), [index])
        with pytest.raises(Exception, match="float"):
            verify_op_isolated(op)

    def test_cmpf_bad_predicate(self):
        block = Block([f64, f64])
        op = Operation("arith.cmpf", list(block.args), [i1],
                       {"predicate": "bogus"})
        with pytest.raises(Exception, match="predicate"):
            verify_op_isolated(op)

    def test_scf_for_requires_yield_arity(self):
        body = Block([index, f64])
        body.append(Operation("scf.yield", [], []))
        bounds = Block([index, index, index, f64])
        op = Operation("scf.for", list(bounds.args), [f64], body=body)
        with pytest.raises(Exception, match="arity"):
            verify_op_isolated(op)

    def test_scf_for_body_arg_count(self):
        body = Block([index, f64, f64])   # one extra arg
        body.append(Operation("scf.yield", [], []))
        bounds = Block([index, index, index])
        op = Operation("scf.for", list(bounds.args), [], body=body)
        with pytest.raises(Exception, match="induction"):
            verify_op_isolated(op)

    def test_func_return_type_checked(self):
        module, _ = build_module()
        fn = func.func(module, "f", [f64], [f64])
        b = IRBuilder(fn.entry)
        b.create("func.return", [], [])  # returns nothing, f64 expected
        with pytest.raises(VerificationError, match="signature"):
            verify_module(module)

    def test_func_entry_args_must_match_signature(self):
        bad = Operation("func.func", [], [], {
            "sym_name": "f",
            "function_type": FunctionType((f64,), ())},
            Block())   # entry block has no args
        with pytest.raises(Exception, match="entry block args"):
            verify_op_isolated(bad)

    def test_memref_load_index_count(self):
        from repro.ir.types import memref_of
        block = Block([memref_of(f64, None, None), index])
        op = Operation("memref.load", [block.args[0], block.args[1]], [f64])
        with pytest.raises(Exception, match="indices"):
            verify_op_isolated(op)

    def test_vector_gather_width_mismatch(self):
        from repro.ir.types import memref_of, vector_of
        block = Block([memref_of(f64), vector_of(4, index)])
        op = Operation("vector.gather", list(block.args), [vector_of(8)])
        with pytest.raises(Exception, match="width"):
            verify_op_isolated(op)

    def test_vector_extract_position_bounds(self):
        from repro.ir.types import vector_of
        block = Block([vector_of(4)])
        op = Operation("vector.extract", [block.args[0]], [f64],
                       {"position": 4})
        with pytest.raises(Exception, match="position"):
            verify_op_isolated(op)

    def test_lookup_spec_validation(self):
        from repro.frontend.symbols import LookupSpec
        with pytest.raises(ValueError):
            LookupSpec(0.0, 1.0, -0.1)
        with pytest.raises(ValueError):
            LookupSpec(1.0, 1.0, 0.1)
        assert LookupSpec(-100.0, 100.0, 0.05).n_rows == 4001


# -- the recorded corpus ----------------------------------------------------------

SEEDS = range(4)


@functools.lru_cache(maxsize=None)
def module_text(name: str) -> str:
    """The pre-pipeline IR of a zoo model, as the sandbox checkpoints it."""
    return print_module(default_kernel(load_model(name)).module)


def _body_blocks(module):
    """Every block inside a function body, pre-order."""
    blocks = []

    def visit(block):
        blocks.append(block)
        for op in block.ops:
            if op.body is not None:
                visit(op.body)

    for fn in module.ops:
        if fn.body is not None:
            visit(fn.body)
    return blocks


def _enclosing(block):
    """``block`` and every block around it, innermost first."""
    chain = []
    while block is not None:
        chain.append(block)
        block = block.parent.parent if block.parent is not None else None
    return chain


def _uses(blocks, rng):
    """Every (op, operand index) of ``blocks``, shuffled by ``rng``."""
    sites = [(op, i) for block in blocks for op in block.ops
             for i in range(len(op.operands))]
    rng.shuffle(sites)
    return sites


def _hoist_above_definer(module, rng, label):
    sites = [(op, v.op) for block in _body_blocks(module) for op in block.ops
             for v in op.operands
             if isinstance(v, OpResult) and v.op.parent is block]
    op, definer = rng.choice(sites)
    where = f"{label(op)} above {label(definer)}"
    op.move_before(definer)
    return where


def _retarget(relation):
    """Point an operand at a same-typed value that is not visible there:
    one defined in a block nested inside the use's block, or in a block
    neither around nor inside it (a sibling region)."""

    def mutate(module, rng, label):
        blocks = _body_blocks(module)
        values = [(v, block) for block in blocks for v in
                  [*block.args, *(r for op in block.ops for r in op.results)]]
        around = {id(b): {id(a) for a in _enclosing(b)} for b in blocks}
        for op, i in _uses(blocks, rng):
            visible = around[id(op.parent)]
            candidates = [
                v for v, block in values
                if v.type == op.operands[i].type and id(block) not in visible
                and (id(op.parent) in around[id(block)]) == (
                    relation == "nested")]
            if candidates:
                target = rng.choice(candidates)
                owner = target.op if isinstance(target, OpResult) \
                    else target.block.parent
                where = f"{label(op)} operand #{i} -> {label(owner)}"
                op.set_operand(i, target)
                return where
        return None

    return mutate


def _visible_retarget(module, rng, label):
    """The control: an operand moved to another value visible at the use."""
    for op, i in _uses(_body_blocks(module), rng):
        candidates, at = [], op
        for block in _enclosing(op.parent):
            candidates += block.args
            for earlier in block.ops[:block.ops.index(at)]:
                candidates += earlier.results
            at = block.parent
        candidates = [v for v in candidates if v is not op.operands[i]
                      and v.type == op.operands[i].type]
        if candidates:
            where = f"{label(op)} operand #{i}"
            op.set_operand(i, rng.choice(candidates))
            return where
    return None


def _iv_after_loop(module, rng, label):
    loop = rng.choice([op for op in module.walk() if op.name == "scf.for"])
    block = loop.parent
    anchor = block.ops[rng.randrange(block.ops.index(loop) + 1,
                                     len(block.ops))]
    where = f"induction variable of {label(loop)} before {label(anchor)}"
    block.insert_before(anchor, Operation(
        "arith.index_cast", [loop.body.args[0]], [IntegerType(64)]))
    return where


def _after_terminator(module, rng, label):
    block = rng.choice([b for b in _body_blocks(module) if b.ops])
    where = f"after {label(block.ops[-1])}"
    block.append(Operation("arith.constant", [], [f64], {"value": 1.0}))
    return where


def _mixed_addf(other):
    """An ``arith.addf`` of an f64 and an ``other``-typed value."""

    def mutate(module, rng, label):
        block = rng.choice(_body_blocks(module))
        anchor = rng.choice(block.ops)
        b = IRBuilder()
        b.set_insertion_point_before(anchor)
        x = b.create("arith.constant", [], [f64], {"value": 1.0}).result
        y = b.create("arith.constant", [], [IntegerType(64)],
                     {"value": 1}).result \
            if other == "i64" else \
            b.create("vector.broadcast", [x], [vector_of(8)]).result
        operands = [x, y] if rng.random() < 0.5 else [y, x]
        b.create("arith.addf", operands, [f64])
        return (f"{'/'.join(str(v.type) for v in operands)} "
                f"before {label(anchor)}")

    return mutate


def _unregistered(module, rng, label):
    op = rng.choice([op for block in _body_blocks(module) for op in block.ops
                     if op.body is None])
    bogus = Operation("limpet.bogus", list(op.operands),
                      [r.type for r in op.results], op.attributes)
    op.parent.insert_before(op, bogus)
    for old, new in zip(op.results, bogus.results):
        old.replace_all_uses_with(new)
    where = f"in place of {label(op)}"
    op.erase()
    return where


#: kind -> mutation(module, rng, label) returning where it struck, or None
#: when the module has no such site
MUTATIONS = {
    "intact": lambda module, rng, label: "unchanged",
    "visible_retarget": _visible_retarget,
    "hoist_above_definer": _hoist_above_definer,
    "nested_block": _retarget("nested"),
    "sibling_region": _retarget("sibling"),
    "iv_after_loop": _iv_after_loop,
    "after_terminator": _after_terminator,
    "addf_i64_f64": _mixed_addf("i64"),
    "addf_f64_vector": _mixed_addf("vector"),
    "unregistered": _unregistered,
}
VALID = ("intact", "visible_retarget")


def mutate(model: str, kind: str, seed: int):
    """``[model, kind, seed, where, message]`` for one mutation (``message``
    is None when the module still verifies), or None without a site."""
    module = parse_module(module_text(model))
    labels = {id(op): f"{op.name}#{n}" for n, op in enumerate(module.walk())}
    where = MUTATIONS[kind](module, random.Random(f"{model}/{kind}/{seed}"),
                            lambda op: labels[id(op)])
    if where is None:
        return None
    try:
        verify_module(module)
    except VerificationError as err:
        return [model, kind, seed, where, str(err)]
    return [model, kind, seed, where, None]


def record() -> list:
    cases = [mutate(model, kind, seed) for model in TIER1_MODELS
             for kind in MUTATIONS
             for seed in (SEEDS if kind != "intact" else (0,))]
    return [case for case in cases if case is not None]


@pytest.fixture(scope="module")
def corpus():
    return pins.read("verifier_corpus")


def test_corpus_covers_every_mutation(corpus):
    assert {case[0] for case in corpus} == set(TIER1_MODELS)
    by_kind = {kind: [case[4] for case in corpus if case[1] == kind]
               for kind in MUTATIONS}
    assert all(by_kind.values())
    for kind, messages in by_kind.items():
        assert all((m is None) == (kind in VALID) for m in messages), kind
    assert set(by_kind["addf_i64_f64"]) == {
        "arith.addf: mismatched operand types ['f64', 'i64']"}
    assert set(by_kind["addf_f64_vector"]) == {
        "arith.addf: mismatched operand types ['f64', 'vector<8xf64>']"}
    # a replaced terminator is reported by its parent's check first
    assert "unregistered operation: limpet.bogus" in by_kind["unregistered"]


@pytest.mark.parametrize("model", TIER1_MODELS)
def test_corpus_replays_with_identical_messages(corpus, model):
    cases = [case for case in corpus if case[0] == model]
    assert [mutate(*case[:3]) for case in cases] == cases
