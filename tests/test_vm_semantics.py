"""VM value-semantics tests: the cast/compare/arithmetic matrix."""

import math
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import VMError, VMTrap
from repro.ir import instructions as ir
from repro.ir.values import Argument, Constant
from repro.minic import types as ct
from repro.vm import semantics
from repro.vm.jit import _FunctionCompiler
from repro.vm.semantics import apply_binop, apply_cast, apply_cmp, wrap_int


class TestWrapInt:
    @pytest.mark.parametrize(
        "value, ctype, expected",
        [
            (256, ct.UCHAR, 0),
            (255, ct.UCHAR, 255),
            (128, ct.CHAR, -128),
            (-129, ct.CHAR, 127),
            (2**31, ct.INT, -(2**31)),
            (2**32 + 5, ct.UINT, 5),
            (-1, ct.ULONG, 2**64 - 1),
        ],
    )
    def test_wrapping(self, value, ctype, expected):
        assert wrap_int(value, ctype) == expected


class TestBinops:
    def test_unsigned_division(self):
        # -2 as u32 is 4294967294; dividing by 3 in unsigned space.
        assert apply_binop("udiv", -2, 3, ct.UINT) == (2**32 - 2) // 3

    def test_unsigned_remainder(self):
        assert apply_binop("urem", -2, 5, ct.UINT) == (2**32 - 2) % 5

    def test_signed_division_by_zero_traps(self):
        with pytest.raises(VMTrap):
            apply_binop("sdiv", 5, 0, ct.INT)
        with pytest.raises(VMTrap):
            apply_binop("urem", 5, 0, ct.INT)

    def test_shift_masks_count(self):
        # Shift counts wrap at the type width, like x86.
        assert apply_binop("shl", 1, 33, ct.INT) == 2
        assert apply_binop("shl", 1, 65, ct.LONG) == 2

    def test_logical_vs_arithmetic_shift(self):
        assert apply_binop("ashr", -8, 1, ct.INT) == -4
        assert apply_binop("lshr", -8, 1, ct.INT) == (2**32 - 8) >> 1

    def test_float_division_by_zero_is_infinite(self):
        assert apply_binop("fdiv", 1.0, 0.0, ct.DOUBLE) == float("inf")

    def test_unknown_opcode_rejected(self):
        with pytest.raises(VMError):
            apply_binop("xyz", 1, 2, ct.INT)


class TestCmp:
    def test_signed_vs_unsigned_comparison(self):
        assert apply_cmp("slt", -1, 0, ct.INT) == 1
        assert apply_cmp("ult", -1, 0, ct.INT) == 0  # -1 is huge unsigned

    def test_pointer_comparison_unsigned(self):
        p = ct.PointerType(ct.CHAR)
        assert apply_cmp("ult", 0x1000, 0x2000, p) == 1

    def test_float_predicates(self):
        assert apply_cmp("fle", 1.5, 1.5, ct.DOUBLE) == 1
        assert apply_cmp("fne", 1.5, 2.5, ct.DOUBLE) == 1

    def test_equality(self):
        assert apply_cmp("eq", 7, 7, ct.INT) == 1
        assert apply_cmp("ne", 7, 8, ct.INT) == 1


class TestCasts:
    def test_trunc(self):
        assert apply_cast("trunc", 0x1FF, ct.INT, ct.CHAR) == -1

    def test_sext_preserves_sign(self):
        assert apply_cast("sext", -5, ct.INT, ct.LONG) == -5

    def test_zext_reinterprets_unsigned(self):
        assert apply_cast("zext", -1, ct.INT, ct.LONG) == 2**32 - 1

    def test_fptosi_truncates_toward_zero(self):
        assert apply_cast("fptosi", 3.9, ct.DOUBLE, ct.INT) == 3
        assert apply_cast("fptosi", -3.9, ct.DOUBLE, ct.INT) == -3

    def test_sitofp_and_uitofp(self):
        assert apply_cast("sitofp", -2, ct.INT, ct.DOUBLE) == -2.0
        assert apply_cast("uitofp", -1, ct.INT, ct.DOUBLE) == float(2**32 - 1)

    def test_fptrunc_rounds_to_f32(self):
        narrowed = apply_cast("fptrunc", 1.1, ct.DOUBLE, ct.FLOAT)
        assert narrowed != 1.1
        assert abs(narrowed - 1.1) < 1e-6

    def test_ptr_int_roundtrip(self):
        p = ct.PointerType(ct.INT)
        as_int = apply_cast("ptrtoint", 0xDEAD, p, ct.LONG)
        assert apply_cast("inttoptr", as_int, ct.LONG, p) == 0xDEAD

    def test_unknown_cast_rejected(self):
        with pytest.raises(VMError):
            apply_cast("teleport", 1, ct.INT, ct.LONG)


class TestEndToEndSemantics:
    """Program-level checks of the same semantics."""

    def run_expr(self, expression, prelude=""):
        from repro.core.pipeline import compile_source
        from repro.vm import Machine

        source = "int main() { %s return (int)(%s); }" % (prelude, expression)
        result = Machine(compile_source(source)).run()
        assert result.finished_cleanly()
        return result.exit_code

    def test_mixed_signedness_comparison(self):
        assert self.run_expr("u > 100", "unsigned int u = 0; u = u - 1;") == 1

    def test_char_sign_extension_through_arithmetic(self):
        assert self.run_expr("c + 0", "char c = (char)200;") == 200 - 256

    def test_unsigned_char_stays_positive(self):
        assert self.run_expr("c + 0", "unsigned char c = (unsigned char)200;") == 200

    def test_long_shift_chain(self):
        assert self.run_expr("(1 << 20) >> 10") == 1024

    def test_float_to_int_conversion(self):
        assert self.run_expr(
            "d", "double x = (double)7 / (double)2; int d = (int)x;"
        ) == 3


# -- fast forms vs the reference -----------------------------------------------------
#
# Every BinOp/Cmp/Cast opcode on every integer width and signedness, a
# pointer type, float and double: the reference function, the lambda the
# predecoder runs and the text the JIT inlines must give the same value,
# or the same VMTrap.

INT_TYPES = [ct.CHAR, ct.UCHAR, ct.SHORT, ct.USHORT, ct.INT, ct.UINT, ct.LONG, ct.ULONG]
POINTER = ct.PointerType(ct.INT)
FLOATS = [ct.FLOAT, ct.DOUBLE]

_CAST_TYPES = {
    "trunc": [(a, b) for a in INT_TYPES for b in INT_TYPES],
    "zext": [(a, b) for a in INT_TYPES for b in INT_TYPES],
    "sext": [(a, b) for a in INT_TYPES for b in INT_TYPES],
    "bitcast": [(a, b) for a in INT_TYPES for b in INT_TYPES] + [(POINTER, POINTER)],
    "ptrtoint": [(POINTER, b) for b in INT_TYPES],
    "inttoptr": [(a, POINTER) for a in INT_TYPES],
    "fptosi": [(a, b) for a in FLOATS for b in INT_TYPES],
    "fptoui": [(a, b) for a in FLOATS for b in INT_TYPES],
    "sitofp": [(a, b) for a in INT_TYPES for b in FLOATS],
    "uitofp": [(a, b) for a in INT_TYPES for b in FLOATS],
    "fpext": [(a, b) for a in FLOATS for b in FLOATS],
    "fptrunc": [(a, b) for a in FLOATS for b in FLOATS],
}


def _binop_types(op):
    return FLOATS if op.startswith("f") else INT_TYPES


def _cmp_types(op):
    return FLOATS if op.startswith("f") else INT_TYPES + [POINTER]


def _edges(ctype):
    if ctype.is_float():
        return [0.0, -0.0, 1.0, -1.0, 0.5, -2.5, 3.4028234663852886e38, 1e300,
                -1e300, 1e-300, 2.0**63, -(2.0**63), 2.0**64, math.inf, -math.inf,
                math.nan]
    bits = ctype.size() * 8
    edges = [0, 1, -1, 2, -2, (1 << bits) - 1, 1 << (bits - 1),
             -(1 << 63), (1 << 64) - 1]
    if ctype.is_integer():
        edges += [ctype.min_value(), ctype.max_value()]
    return edges


def _values(ctype):
    if ctype.is_float():
        return st.sampled_from(_edges(ctype)) | st.floats()
    return st.sampled_from(_edges(ctype)) | st.integers(-(1 << 65), 1 << 65)


def _outcome(fn, *args):
    try:
        value = fn(*args)
    except VMTrap as trap:
        return ("trap", str(trap))
    return (type(value).__name__, repr(value))


def _jit_outcome(inst, values, inline):
    """Run the JIT's text as a compiled body does: SSA operands are
    locals, constants go through the JIT's own operand printer, and the
    helper names are bound as the generated module's globals."""
    compiler = _FunctionCompiler(SimpleNamespace(cost=None), None)
    local_values = {}
    texts = []
    for index, (operand, value) in enumerate(zip(inst.operands, values)):
        if inline[index]:
            texts.append(compiler._expr(Constant(operand.ctype, value)))
        else:
            texts.append(f"v{index}")
            local_values[f"v{index}"] = value
    namespace = dict(semantics.HELPERS)
    namespace.update((name, payload) for name, _, payload in compiler.bindings)
    return _outcome(eval, semantics.value_src(inst, texts), namespace, local_values)


def _check(inst, reference, values, inline=(False, False)):
    expected = _outcome(reference, *values)
    assert _outcome(semantics.value_fn(inst), *values) == expected, (inst, values)
    assert _jit_outcome(inst, values, inline) == expected, (inst, values, inline)


def _check_binop(op, ctype, a, b, inline=(False, False)):
    inst = ir.BinOp(op, Argument("a", ctype, 0), Argument("b", ctype, 1))
    _check(inst, lambda x, y: apply_binop(op, x, y, ctype), (a, b), inline)


def _check_cmp(op, ctype, a, b, inline=(False, False)):
    inst = ir.Cmp(op, Argument("a", ctype, 0), Argument("b", ctype, 1))
    _check(inst, lambda x, y: apply_cmp(op, x, y, ctype), (a, b), inline)


def _check_cast(kind, from_type, to_type, value, inline=False):
    inst = ir.Cast(kind, Argument("v", from_type, 0), to_type)
    reference = lambda x: apply_cast(kind, x, from_type, to_type)  # noqa: E731
    _check(inst, reference, (value,), (inline,))


class TestFastFormsOnExtremes:
    """Every edge-value operand pair, as SSA locals and as inlined constants."""

    @pytest.mark.parametrize("op", sorted(ir.BINARY_OPS))
    def test_binop(self, op):
        for ctype in _binop_types(op):
            for a in _edges(ctype):
                for b in _edges(ctype):
                    _check_binop(op, ctype, a, b)
                    _check_binop(op, ctype, a, b, inline=(True, True))

    @pytest.mark.parametrize("op", sorted(ir.COMPARE_OPS))
    def test_cmp(self, op):
        for ctype in _cmp_types(op):
            for a in _edges(ctype):
                for b in _edges(ctype):
                    _check_cmp(op, ctype, a, b)
                    _check_cmp(op, ctype, a, b, inline=(True, True))

    @pytest.mark.parametrize("kind", sorted(ir.CAST_KINDS))
    def test_cast(self, kind):
        for from_type, to_type in _CAST_TYPES[kind]:
            for value in _edges(from_type):
                _check_cast(kind, from_type, to_type, value)
                _check_cast(kind, from_type, to_type, value, inline=True)

    def test_division_by_zero_traps_everywhere(self):
        for op in ("sdiv", "srem", "udiv", "urem"):
            assert _outcome(apply_binop, op, 5, 0, ct.INT)[0] == "trap"
            _check_binop(op, ct.INT, 5, 0)

    def test_non_finite_float_to_int_traps_everywhere(self):
        for value in (math.inf, -math.inf, math.nan):
            assert _outcome(apply_cast, "fptosi", value, ct.DOUBLE, ct.INT)[0] == "trap"
            _check_cast("fptosi", ct.DOUBLE, ct.INT, value)


_BINOP_SHAPES = [(op, t) for op in sorted(ir.BINARY_OPS) for t in _binop_types(op)]
_CMP_SHAPES = [(op, t) for op in sorted(ir.COMPARE_OPS) for t in _cmp_types(op)]
_CAST_SHAPES = [
    (kind, a, b) for kind in sorted(_CAST_TYPES) for a, b in _CAST_TYPES[kind]
]


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_binop_fast_forms_match_reference(data):
    op, ctype = data.draw(st.sampled_from(_BINOP_SHAPES))
    a, b = data.draw(_values(ctype)), data.draw(_values(ctype))
    _check_binop(op, ctype, a, b, data.draw(st.tuples(st.booleans(), st.booleans())))


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_cmp_fast_forms_match_reference(data):
    op, ctype = data.draw(st.sampled_from(_CMP_SHAPES))
    a, b = data.draw(_values(ctype)), data.draw(_values(ctype))
    _check_cmp(op, ctype, a, b, data.draw(st.tuples(st.booleans(), st.booleans())))


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_cast_fast_forms_match_reference(data):
    kind, from_type, to_type = data.draw(st.sampled_from(_CAST_SHAPES))
    value = data.draw(_values(from_type))
    _check_cast(kind, from_type, to_type, value, data.draw(st.booleans()))
