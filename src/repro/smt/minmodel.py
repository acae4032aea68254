"""Lexicographically minimal models, independent of solver history.

Canonical witness extraction is the property that makes deep solver
rewrites safe in this repo: a verdict's artifact is a pure function of
the formula, never of pool warmth, encoding details, or kernel heuristics.
This module holds the minimization core so both the analysis layer
(:mod:`repro.analysis.witness`) and the fuzzer's constraint-model
sampling share one implementation.

``minimal_assignment`` pins variables in sorted-name order, minimizing
each given the pins before it; ``_minimal_value`` is the greedy
MSB-first prefer-zero descent used per variable.  Everything flows
through ``Solver.check(*assumptions)``, so pooled warm solvers are safe.

Caveat for callers: the concrete fast path compiles only the
*assumptions*, so any constraint that lives in the solver's permanent
assertions but matters for minimality must also be passed as an
assumption — otherwise a variable it constrains can be wrongly accepted
at zero by the evaluator.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.smt import terms as T
from repro.smt.compile import compile_term
from repro.smt.solver import Result, Solver


def _minimal_value(
    solver: Solver, assumptions: Sequence[T.Term], pins: List[T.Term], term: T.Term
) -> int:
    """The smallest value of ``term`` consistent with the assumptions and
    the pins fixed so far.

    Greedy MSB-first prefer-zero descent, computed segment-wise: try the
    whole remaining run of zero bits in one check; on failure
    binary-search the longest satisfiable zero prefix (prefix
    satisfiability is monotone), after which the next bit is forced to 1.
    With a zero background the greedy walk *is* unsigned minimization, so
    the result is the unique minimum — independent of solver history.

    Precondition: the caller established that value 0 is unsatisfiable
    and that the assumption set itself is satisfiable.
    """
    width = term.width
    value = 0
    bit_pins: List[T.Term] = []

    def zero_pins(msb: int, count: int) -> List[T.Term]:
        return [
            T.extract(term, b, b).eq(T.bv_const(0, 1))
            for b in range(msb, msb - count, -1)
        ]

    def sat_with(extra: List[T.Term]) -> bool:
        return (
            solver.check(*assumptions, *pins, *bit_pins, *extra) is Result.SAT
        )

    bit = width - 1
    first = True
    while bit >= 0:
        remaining = bit + 1
        if not first and sat_with(zero_pins(bit, remaining)):
            # The whole suffix can be zero; the value so far is minimal.
            break
        first = False
        lo, hi = 0, remaining  # lo known-SAT run length, hi known-UNSAT
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if sat_with(zero_pins(bit, mid)):
                lo = mid
            else:
                hi = mid
        if lo:
            bit_pins.extend(zero_pins(bit, lo))
            bit -= lo
        # The next bit cannot be zero: every model has it set.
        bit_pins.append(T.extract(term, bit, bit).eq(T.bv_const(1, 1)))
        value |= 1 << bit
        bit -= 1
    return value


def minimal_assignment(
    solver: Solver,
    assumptions: Sequence[T.Term],
    variables: Dict[str, T.Term],
) -> Optional[Dict[str, int]]:
    """The lexicographically minimal model of ``assumptions`` over
    ``variables`` (name -> bitvector term), pinning variables in sorted
    name order and minimizing each given the pins before it.

    Returns ``None`` when the assumption set is unsatisfiable.  All
    queries flow through ``Solver.check(*assumptions)``, so pooled warm
    solvers are safe and the result is history-independent.
    """
    if solver.check(*assumptions) is not Result.SAT:
        return None
    formula = T.and_(*assumptions) if assumptions else T.TRUE
    compiled = compile_term(formula)
    # One valid completion seeds the concrete fast path: if the current
    # model already has a variable at zero (or at the candidate minimum),
    # no solver query is needed to accept it.
    model = dict(solver.model(compiled.variables))
    out: Dict[str, int] = {}
    pins: List[T.Term] = []
    for name in sorted(variables):
        term = variables[name]
        if name not in compiled.variables:
            out[name] = 0  # unconstrained: minimum is trivially zero
            continue
        is_bool = isinstance(term.sort, T.BoolSort)
        zero_pin = T.not_(term) if is_bool else term.eq(T.bv_const(0, term.width))
        chosen: Optional[int] = None
        # {**model, **out} is a known model of assumptions ∧ pins (out
        # overrides keep it aligned with every pin accepted so far), so a
        # true evaluation here is a proof — no solver query needed.
        if compiled.evaluate({**model, **out, name: 0}):
            chosen = 0
        elif solver.check(*assumptions, *pins, zero_pin) is Result.SAT:
            chosen = 0
            model = dict(solver.model(compiled.variables))
        if chosen is None:
            # For booleans, zero (false) is unsat, so true is forced.
            chosen = (
                1 if is_bool else _minimal_value(solver, assumptions, pins, term)
            )
            pin = term if is_bool else term.eq(T.bv_const(chosen, term.width))
            solver.check(*assumptions, *pins, pin)
            model = dict(solver.model(compiled.variables))
        out[name] = chosen
        pins.append(
            zero_pin
            if chosen == 0
            else (term if is_bool else term.eq(T.bv_const(chosen, term.width)))
        )
    return out
