"""What every value opcode computes: the VM's one table of opcode semantics.

BinOp, Cmp, Cast, ElemPtr and FieldPtr and the SSA coercion are defined
here in two forms:

* **Fast forms** (:func:`value_src`, :func:`coerce_src`): Python
  expression source over the operands' source expressions, specialised
  per opcode and type with masks and sign offsets inlined.  The JIT
  inlines the text into the code it generates; the predecoder runs it
  as lambdas ``eval``\\ ed once per opcode and type shape
  (:func:`value_fn`, :func:`coercer`).  Traps, infinities and the
  float-to-int check go through the names in :data:`HELPERS`.  Operands
  must be well typed (ints for integer and pointer types, floats for
  float types), as the front end emits them.
* **Reference forms** (:func:`apply_binop`, :func:`apply_cmp`,
  :func:`apply_cast`): plain interpreters of the same rules, run by the
  executor-table engine and the -O2 constant folder.  The tests check
  every fast form against them.
"""

from __future__ import annotations

from typing import Callable, Dict, Sequence

from repro.errors import VMError, VMTrap
from repro.ir import instructions as ir
from repro.minic import types as ct
from repro.vm.floatmath import float_to_int_operand, round_f32

U64 = (1 << 64) - 1


def _trunc_div(a: int, b: int) -> int:
    """C's quotient, truncated toward zero; a zero divisor traps."""
    if b == 0:
        raise VMTrap("integer division by zero")
    quotient = abs(a) // abs(b)
    return -quotient if (a < 0) != (b < 0) else quotient


def _float_div(a: float, b: float) -> float:
    """Float division; a zero divisor gives an infinity (-inf unless a > 0)."""
    if b == 0.0:
        return float("inf") if a > 0 else float("-inf")
    return a / b


#: The names fast-form text calls, bound wherever that text runs.
HELPERS: Dict[str, Callable] = {
    "_F32": round_f32,
    "_F2I": float_to_int_operand,
    "_DIV": _trunc_div,
    "_REM": lambda a, b: a - _trunc_div(a, b) * b,
    "_FDIV": _float_div,
}

# -- fast forms -------------------------------------------------------------------

_FLOAT_BINOPS = {
    "fadd": "({a}) + ({b})", "fsub": "({a}) - ({b})", "fmul": "({a}) * ({b})",
    "fdiv": "_FDIV({a}, {b})",
}
_INT_BINOPS = {
    "add": "({a}) + ({b})", "sub": "({a}) - ({b})", "mul": "({a}) * ({b})",
    "and": "({a}) & ({b})", "or": "({a}) | ({b})", "xor": "({a}) ^ ({b})",
    "shl": "({a}) << {shift}", "lshr": "((({a}) & {mask}) >> {shift})",
    "ashr": "({a}) >> {shift}",
    "sdiv": "_DIV({a}, {b})", "srem": "_REM({a}, {b})",
    "udiv": "_DIV(({a}) & {mask}, ({b}) & {mask})",
    "urem": "_REM(({a}) & {mask}, ({b}) & {mask})",
}
_CMP_SYMBOLS = {"eq": "==", "ne": "!=", "lt": "<", "le": "<=", "gt": ">", "ge": ">="}
_CASTS = {
    "trunc": "({v})", "sext": "({v})", "bitcast": "({v})",
    "ptrtoint": "({v})", "inttoptr": "({v})", "zext": "(({v}) & {mask})",
    "fptosi": "int(_F2I({v}))", "fptoui": "int(_F2I({v}))",
    "sitofp": "float({v})", "uitofp": "float(({v}) & {mask})",
    "fpext": "float({v})", "fptrunc": "_F32({v})",
}


def _mask(ctype: ct.CType) -> int:
    return (1 << (ctype.size() * 8)) - 1


def _wrap_expr(expr: str, ctype: ct.CType) -> str:
    bits = ctype.size() * 8
    if getattr(ctype, "signed", False):
        sign = 1 << (bits - 1)
        return f"(((({expr}) + {sign}) & {(1 << bits) - 1}) - {sign})"
    return f"(({expr}) & {(1 << bits) - 1})"


def _binop_src(op: str, a: str, b: str, result_type: ct.CType) -> str:
    """Source computing BinOp ``op`` of the operand expressions ``a``, ``b``."""
    bits = result_type.size() * 8
    if op in _FLOAT_BINOPS:
        # float-typed results round to binary32 per operation, exactly as
        # SSE hardware does; see repro.vm.floatmath.
        raw = _FLOAT_BINOPS[op].format(a=a, b=b)
        return f"_F32({raw})" if bits == 32 else raw
    if op not in _INT_BINOPS:
        raise VMError(f"unknown binop '{op}'")
    shift = f"(({b}) & {bits - 1})"
    raw = _INT_BINOPS[op].format(a=a, b=b, mask=(1 << bits) - 1, shift=shift)
    return _wrap_expr(raw, result_type)


def _cmp_src(op: str, a: str, b: str, operand_type: ct.CType) -> str:
    """Source computing Cmp ``op`` (0 or 1) of ``a`` and ``b``."""
    if op in ("eq", "ne"):
        return f"1 if ({a}) {_CMP_SYMBOLS[op]} ({b}) else 0"
    if op[0] == "u" or (op[0] == "s" and operand_type.is_pointer()):
        mask = _mask(operand_type) if operand_type.is_integer() else U64
        a, b = f"(({a}) & {mask})", f"(({b}) & {mask})"
    return f"1 if ({a}) {_CMP_SYMBOLS[op[1:]]} ({b}) else 0"


def _cast_src(kind: str, value: str, from_type: ct.CType, to_type: ct.CType) -> str:
    """Source converting ``value`` from ``from_type`` to ``to_type``."""
    if kind not in _CASTS:
        raise VMError(f"unknown cast '{kind}'")
    mask = _mask(from_type) if kind in ("zext", "uitofp") else None
    raw = _CASTS[kind].format(v=value, mask=mask)
    if kind in ("sitofp", "uitofp"):
        return f"_F32({raw})" if to_type.size() == 4 else raw
    if kind in ("fpext", "fptrunc"):
        return raw
    if to_type.is_pointer():
        return f"{raw} & {U64}"
    return _wrap_expr(raw, to_type) if to_type.is_integer() else raw


def value_src(inst: ir.Instruction, operands: Sequence[str]) -> str:
    """Source computing a BinOp, Cmp, Cast, ElemPtr or FieldPtr from the
    source expressions of its operands."""
    if isinstance(inst, ir.BinOp):
        return _binop_src(inst.op, *operands, inst.ctype)
    if isinstance(inst, ir.Cmp):
        return _cmp_src(inst.op, *operands, inst.lhs.ctype)
    if isinstance(inst, ir.Cast):
        return _cast_src(inst.kind, *operands, inst.value.ctype, inst.ctype)
    if isinstance(inst, ir.ElemPtr):
        base, index = operands
        size = inst.element_type.size()
        scaled = f"({index})" if size == 1 else f"({index}) * {size}"
        return f"(({base}) + {scaled}) & {U64}"
    if isinstance(inst, ir.FieldPtr):
        return f"(({operands[0]}) + {inst.byte_offset}) & {U64}"
    raise VMError(f"no fast form for {type(inst).__name__}")


def coerce_src(expr: str, ctype: ct.CType) -> str:
    """Source coercing an SSA value (never None) to ``ctype``."""
    if ctype.is_float():
        return f"float({expr})"
    if ctype.is_pointer():
        return f"(({expr}) & {U64})"
    return _wrap_expr(expr, ctype) if ctype.is_integer() else expr


def _coercion_src(ctype: ct.CType) -> str:
    # Builtin results and returned values may be None or a bool.
    operand = "int(v)" if ctype.is_pointer() or ctype.is_integer() else "v"
    return f"0 if v is None else {coerce_src(operand, ctype)}"


# -- fast forms as the predecoder's lambdas ---------------------------------------


def _type_facts(ctype: ct.CType) -> tuple:
    """All a fast form reads from a type: (size, signed, pointer, float)."""
    if ctype.is_pointer():
        return (8, False, True, False)
    if ctype.is_integer():
        return (ctype.size(), ctype.signed, False, False)
    return (ctype.size() if ctype.is_complete() else 0, False, False, ctype.is_float())


def _shape(inst: ir.Instruction) -> tuple:
    """All the fast form of ``inst`` depends on besides its operands."""
    if isinstance(inst, ir.BinOp):
        return (inst.op, _type_facts(inst.ctype))
    if isinstance(inst, ir.Cmp):
        return (inst.op, _type_facts(inst.lhs.ctype))
    if isinstance(inst, ir.Cast):
        return (inst.kind, _type_facts(inst.value.ctype), _type_facts(inst.ctype))
    if isinstance(inst, ir.ElemPtr):
        return ("elemptr", inst.element_type.size())
    return ("fieldptr", inst.byte_offset)


#: Evaluated fast forms by shape; every module shares them.
_LAMBDAS: Dict[tuple, Callable] = {}
_GLOBALS = dict(HELPERS)


def _compile(params: Sequence[str], source: str) -> Callable:
    return eval(f"lambda {', '.join(params)}: {source}", _GLOBALS)


def value_fn(inst: ir.Instruction) -> Callable:
    """:func:`value_src` as a function of the operand values."""
    key = _shape(inst)
    fn = _LAMBDAS.get(key)
    if fn is None:
        params = ("a", "b")[: len(inst.operands)]
        fn = _LAMBDAS[key] = _compile(params, value_src(inst, params))
    return fn


def coercer(ctype: ct.CType) -> Callable:
    """``f(v)`` coercing a value entering SSA as ``ctype``; None becomes 0."""
    key = ("coerce", _type_facts(ctype))
    fn = _LAMBDAS.get(key)
    if fn is None:
        fn = _LAMBDAS[key] = _compile(("v",), _coercion_src(ctype))
    return fn


# -- reference forms --------------------------------------------------------------


def wrap_int(value: int, ctype: ct.CType) -> int:
    bits = ctype.size() * 8
    value &= (1 << bits) - 1
    if getattr(ctype, "signed", False) and value >= 1 << (bits - 1):
        value -= 1 << bits
    return value


def to_unsigned(value: int, ctype: ct.CType) -> int:
    bits = ctype.size() * 8
    return value & ((1 << bits) - 1)


def apply_binop(op: str, lhs, rhs, result_type: ct.CType):
    if op == "add":
        return wrap_int(int(lhs) + int(rhs), result_type)
    if op == "sub":
        return wrap_int(int(lhs) - int(rhs), result_type)
    if op == "mul":
        return wrap_int(int(lhs) * int(rhs), result_type)
    if op in ("sdiv", "srem"):
        a, b = int(lhs), int(rhs)
        if b == 0:
            raise VMTrap("integer division by zero")
        quotient = abs(a) // abs(b)
        if (a < 0) != (b < 0):
            quotient = -quotient
        if op == "sdiv":
            return wrap_int(quotient, result_type)
        return wrap_int(a - quotient * b, result_type)
    if op in ("udiv", "urem"):
        a = to_unsigned(int(lhs), result_type)
        b = to_unsigned(int(rhs), result_type)
        if b == 0:
            raise VMTrap("integer division by zero")
        return wrap_int(a // b if op == "udiv" else a % b, result_type)
    if op == "and":
        return wrap_int(int(lhs) & int(rhs), result_type)
    if op == "or":
        return wrap_int(int(lhs) | int(rhs), result_type)
    if op == "xor":
        return wrap_int(int(lhs) ^ int(rhs), result_type)
    if op in ("shl", "lshr", "ashr"):
        bits = result_type.size() * 8
        shift = int(rhs) & (bits - 1)
        if op == "shl":
            return wrap_int(int(lhs) << shift, result_type)
        if op == "lshr":
            return wrap_int(to_unsigned(int(lhs), result_type) >> shift, result_type)
        return wrap_int(int(lhs) >> shift, result_type)
    if op in ("fadd", "fsub", "fmul", "fdiv"):
        if op == "fadd":
            result = float(lhs) + float(rhs)
        elif op == "fsub":
            result = float(lhs) - float(rhs)
        elif op == "fmul":
            result = float(lhs) * float(rhs)
        else:
            denominator = float(rhs)
            if denominator == 0.0:
                result = float("inf") if float(lhs) > 0 else float("-inf")
            else:
                result = float(lhs) / denominator
        # float-typed results round to binary32 per operation, exactly as
        # SSE hardware does; see repro.vm.floatmath.
        if result_type.size() == 4:
            return round_f32(result)
        return result
    raise VMError(f"unknown binop '{op}'")


def apply_cmp(op: str, lhs, rhs, operand_type: ct.CType) -> int:
    if op.startswith("f"):
        a, b = float(lhs), float(rhs)
        table = {
            "feq": a == b, "fne": a != b,
            "flt": a < b, "fle": a <= b, "fgt": a > b, "fge": a >= b,
        }
        return int(table[op])
    if op in ("eq", "ne"):
        equal = int(lhs) == int(rhs)
        return int(equal if op == "eq" else not equal)
    if op[0] == "u" or operand_type.is_pointer():
        a = to_unsigned(int(lhs), operand_type) if operand_type.is_integer() else int(lhs) & U64
        b = to_unsigned(int(rhs), operand_type) if operand_type.is_integer() else int(rhs) & U64
    else:
        a, b = int(lhs), int(rhs)
    suffix = op[1:]
    table = {
        "lt": a < b, "le": a <= b, "gt": a > b, "ge": a >= b,
    }
    return int(table[suffix])


def apply_cast(kind: str, value, from_type: ct.CType, to_type: ct.CType):
    if kind in ("trunc", "zext", "sext", "bitcast", "ptrtoint", "inttoptr"):
        if kind == "zext":
            value = to_unsigned(int(value), from_type)
        if to_type.is_pointer():
            return int(value) & U64
        if to_type.is_integer():
            return wrap_int(int(value), to_type)
        return value
    if kind in ("fptosi", "fptoui"):
        return wrap_int(int(float_to_int_operand(float(value))), to_type)
    if kind in ("sitofp",):
        result = float(int(value))
        return round_f32(result) if to_type.size() == 4 else result
    if kind == "uitofp":
        result = float(to_unsigned(int(value), from_type))
        return round_f32(result) if to_type.size() == 4 else result
    if kind == "fpext":
        return float(value)
    if kind == "fptrunc":
        return round_f32(float(value))
    raise VMError(f"unknown cast '{kind}'")
