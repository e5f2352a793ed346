"""Constant folding: evaluate instructions whose operands are constants.

Folds integer/float arithmetic, comparisons and casts using the exact
semantics of the VM (shared helpers), plus branch folding: a conditional
branch on a constant becomes an unconditional one.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.errors import VMError, VMTrap
from repro.ir.instructions import BinOp, Br, Cast, Cmp, CondBr, Instruction, Phi, Select
from repro.ir.module import Function, Module
from repro.ir.values import Constant, Value
from repro.vm.semantics import apply_binop, apply_cast, apply_cmp


def _fold_instruction(inst: Instruction) -> Optional[Constant]:
    """Return the constant an instruction folds to, or None."""
    operands = inst.operands
    if not all(isinstance(op, Constant) for op in operands):
        return None
    try:
        if isinstance(inst, BinOp):
            value = apply_binop(
                inst.op, operands[0].value, operands[1].value, inst.ctype
            )
            return Constant(inst.ctype, value)
        if isinstance(inst, Cmp):
            value = apply_cmp(
                inst.op, operands[0].value, operands[1].value, operands[0].ctype
            )
            return Constant(inst.ctype, value)
        if isinstance(inst, Cast):
            value = apply_cast(
                inst.kind, operands[0].value, operands[0].ctype, inst.ctype
            )
            return Constant(inst.ctype, value)
        if isinstance(inst, Select):
            cond, a, b = operands
            return a if cond.value else b
    except (VMTrap, VMError, OverflowError, ValueError):
        # Division by zero etc.: leave it for runtime to trap.
        return None
    return None


def fold_function(function: Function) -> int:
    """Iteratively fold constants; returns the number of folds."""
    folded_total = 0
    changed = True
    while changed:
        changed = False
        replacements: Dict[Instruction, Constant] = {}
        for inst in function.instructions():
            constant = _fold_instruction(inst)
            if constant is not None:
                replacements[inst] = constant
        if replacements:
            changed = True
            folded_total += len(replacements)
            for block in function.blocks:
                block.instructions = [
                    inst for inst in block.instructions
                    if inst not in replacements
                ]
                for inst in block.instructions:
                    for position, operand in enumerate(inst.operands):
                        if operand in replacements:
                            inst.operands[position] = replacements[operand]
                    if isinstance(inst, Phi):
                        for index, (value, _) in enumerate(list(inst.incomings)):
                            if value in replacements:
                                inst.replace_incoming_value(
                                    index, replacements[value]
                                )
        # Branch folding: constant conditions become plain branches.
        for block in function.blocks:
            terminator = block.terminator()
            if isinstance(terminator, CondBr) and isinstance(
                terminator.cond, Constant
            ):
                target = (
                    terminator.true_target
                    if terminator.cond.value
                    else terminator.false_target
                )
                dropped = (
                    terminator.false_target
                    if terminator.cond.value
                    else terminator.true_target
                )
                block.instructions.pop()
                replacement = Br(target)
                replacement.block = block
                block.instructions.append(replacement)
                _remove_phi_incomings(dropped, block)
                changed = True
                folded_total += 1
    return folded_total


def _remove_phi_incomings(block, from_block) -> None:
    """Strip phi incomings for an edge that no longer exists."""
    for inst in block.instructions:
        if not isinstance(inst, Phi):
            break
        kept = [
            (value, pred) for value, pred in inst.incomings if pred is not from_block
        ]
        if len(kept) != len(inst.incomings):
            inst.incomings = kept
            inst.operands = [value for value, _ in kept]


def fold_module(module: Module) -> int:
    return sum(fold_function(fn) for fn in module.functions.values())
