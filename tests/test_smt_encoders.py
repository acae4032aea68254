"""SMT verdicts against independent references, and the CNF layer's economy.

Two references hold the solver pipeline (structural encoder + CDCL kernel)
to account:

* Small formulas — at most 12 free bits, over every operator — are decided
  by exhaustive enumeration.  Every verdict must match it, UNSAT included;
  every SAT model must satisfy the formula under :func:`terms.evaluate`;
  and ``minimal_assignment`` must return exactly the lexicographically
  first satisfying assignment the enumeration finds.  The same holds for
  assumption sequences against one encoding and for pooled reuse across
  table states.
* The seeded wide-width formulas of :mod:`tests.test_smt_compile` keep the
  verdicts in ``tests/golden/smt_encoders.json``, recorded while all four
  encoder/kernel combinations (structural/Tseitin x modern/activity-only)
  were live and agreed.

The enumeration evaluates through :func:`repro.smt.compile.compile_term`
for speed; ``tests/test_smt_compile.py`` holds that evaluator to
``terms.evaluate`` bit for bit.
"""

import itertools
import random
from typing import List, NamedTuple, Optional

import pytest

from repro.smt import Result, Solver, SolverPool
from repro.smt import terms as T
from repro.smt.compile import compile_term
from repro.smt.minmodel import minimal_assignment
from repro.symbolic import PacketGenerator
from repro.symbolic.coverage import CoverageMode

from tests.golden import cases as C

GOLDEN = C.load("smt_encoders")

MAX_FREE_BITS = 12


# ----------------------------------------------------------------------
# Small-width formulas and the enumeration reference
# ----------------------------------------------------------------------
class VarPool(NamedTuple):
    bvs: List[T.Term]
    bools: List[T.Term]


def _var_pool(rng: random.Random, names=("a", "b")) -> VarPool:
    """Two bitvector variables of one small width plus two booleans:
    at most 2 * 5 + 2 = 12 free bits."""
    width = rng.choice([2, 3, 4, 5])
    return VarPool(
        bvs=[T.bv_var(f"{name}{width}", width) for name in names],
        bools=[T.bool_var("p"), T.bool_var("q")],
    )


def _small_leaf(rng: random.Random, width: int, pool: VarPool) -> T.Term:
    if rng.random() < 0.3:
        return T.bv_const(rng.getrandbits(width), width)
    var = rng.choice(pool.bvs)
    if var.width == width:
        return var
    if var.width > width:
        lo = rng.randrange(0, var.width - width + 1)
        return T.extract(var, lo + width - 1, lo)
    extend = T.zext if rng.random() < 0.5 else T.sext
    return extend(var, width - var.width)


def _small_bv(rng: random.Random, depth: int, width: int, pool: VarPool) -> T.Term:
    """A random bitvector term of ``width`` bits over the pool's variables."""
    if depth <= 0 or rng.random() < 0.3:
        return _small_leaf(rng, width, pool)

    def sub(w: int = width) -> T.Term:
        return _small_bv(rng, depth - 1, w, pool)

    choice = rng.randrange(12)
    if choice == 0:
        return sub() & sub()
    if choice == 1:
        return sub() | sub()
    if choice == 2:
        return sub() ^ sub()
    if choice == 3:
        return sub() + sub()
    if choice == 4:
        return sub() - sub()
    if choice == 5:
        return sub() * sub()
    if choice == 6:
        return ~sub()
    if choice == 7:
        return T.shl(sub(), rng.randrange(0, width + 1))
    if choice == 8:
        return T.lshr(sub(), rng.randrange(0, width + 1))
    if choice == 9 and width > 1:
        split = rng.randrange(1, width)
        return T.concat(sub(width - split), sub(split))
    if choice == 10:
        outer = width + rng.randrange(1, 4)
        lo = rng.randrange(0, outer - width + 1)
        return T.extract(sub(outer), lo + width - 1, lo)
    return T.ite(_small_bool(rng, depth - 1, pool), sub(), sub())


def _small_bool(rng: random.Random, depth: int, pool: VarPool) -> T.Term:
    if depth <= 0 or rng.random() < 0.15:
        if rng.random() < 0.1:
            return T.TRUE if rng.random() < 0.5 else T.FALSE
        return rng.choice(pool.bools)

    def sub() -> T.Term:
        return _small_bool(rng, depth - 1, pool)

    choice = rng.randrange(10)
    if choice == 0:
        return T.not_(sub())
    if choice == 1:
        return T.and_(*[sub() for _ in range(rng.randrange(2, 4))])
    if choice == 2:
        return T.or_(*[sub() for _ in range(rng.randrange(2, 4))])
    if choice == 3:
        return T.xor(sub(), sub())
    if choice == 4:
        return T.eq(sub(), sub())
    if choice == 5:
        return T.ite(sub(), sub(), sub())
    width = rng.randint(1, 8)
    a = _small_bv(rng, depth - 1, width, pool)
    b = _small_bv(rng, depth - 1, width, pool)
    if choice in (6, 7):
        return a.eq(b)
    if choice == 8:
        return a.ult(b) if rng.random() < 0.5 else a.ule(b)
    return a.slt(b) if rng.random() < 0.5 else a.sle(b)


def _small_formula(rng: random.Random, pool: VarPool) -> T.Term:
    """A conjunction of three random atoms: UNSAT about 40% of the time."""
    return T.and_(*[_small_bool(rng, 3, pool) for _ in range(3)])


def _variables(formula: T.Term):
    """Name -> variable term for every free variable of ``formula``."""
    return {
        name: T.bool_var(name) if isinstance(sort, T.BoolSort) else T.bv_var(name, sort.width)
        for name, sort in T.free_variables(formula).items()
    }


def _first_model(formula: T.Term) -> Optional[dict]:
    """The lexicographically first satisfying assignment of the formula's
    free variables (sorted by name, first name most significant), found by
    trying every assignment; ``None`` when the formula is UNSAT."""
    variables = _variables(formula)
    names = sorted(variables)
    widths = [1 if variables[n].is_bool else variables[n].width for n in names]
    assert sum(widths) <= MAX_FREE_BITS, f"{sum(widths)} free bits"
    compiled = compile_term(formula)
    for values in itertools.product(*(range(1 << w) for w in widths)):
        assignment = dict(zip(names, values, strict=True))
        if compiled.evaluate(assignment):
            return assignment
    return None


def _check_against_enumeration(solver: Solver, formula: T.Term, *assumptions) -> Result:
    """``solver.check(*assumptions)`` must match enumeration of
    ``formula`` (the asserted part conjoined with the assumptions)."""
    result = solver.check(*assumptions)
    expected = _first_model(formula)
    assert (result is Result.SAT) == (expected is not None), (
        f"solver says {result.value}, enumeration says "
        f"{'SAT' if expected is not None else 'UNSAT'} for {formula!r}"
    )
    if result is Result.SAT:
        model = dict(solver.model())
        assert T.evaluate(formula, model) == 1, f"model {model} falsifies {formula!r}"
    return result


SMALL_SEEDS = range(8)
FORMULAS_PER_SEED = 12


@pytest.mark.parametrize("seed", SMALL_SEEDS)
def test_small_formulas_match_enumeration(seed):
    rng = random.Random(11000 + seed)
    verdicts = set()
    for _ in range(FORMULAS_PER_SEED):
        pool = _var_pool(rng)
        formula = _small_formula(rng, pool)
        s = Solver(simplify_terms=bool(rng.getrandbits(1)))
        s.add(formula)
        verdicts.add(_check_against_enumeration(s, formula))
        # The canonical witness is the enumeration's first model exactly.
        witness = minimal_assignment(Solver(), [formula], _variables(formula))
        assert witness == _first_model(formula)
        if witness is not None:
            assert T.evaluate(formula, witness) == 1
    assert Result.SAT in verdicts


def test_small_formula_generator_reaches_both_verdicts():
    # A generator that only ever produced SAT formulas would leave the
    # UNSAT half of the enumeration reference untested.
    verdicts = []
    for seed in SMALL_SEEDS:
        rng = random.Random(11000 + seed)
        for _ in range(FORMULAS_PER_SEED):
            pool = _var_pool(rng)
            verdicts.append(_first_model(_small_formula(rng, pool)) is not None)
            rng.getrandbits(1)  # the simplify_terms draw, as in the test above
    assert 0.25 <= verdicts.count(False) / len(verdicts) <= 0.75


@pytest.mark.parametrize("seed", range(6))
def test_assumption_sequences_agree(seed):
    # The SolverPool usage pattern: one base encoding, many goal
    # assumptions checked against it in sequence.  Every verdict of the
    # sequence must match enumeration — this exercises literal_for's
    # bidirectional root gates.
    rng = random.Random(8000 + seed)
    pool = _var_pool(rng)
    base = _small_bool(rng, 3, pool)
    assumptions = [_small_bool(rng, 2, pool) for _ in range(6)]
    s = Solver()
    s.add(base)
    for a in assumptions:
        _check_against_enumeration(s, T.and_(base, a), a)
    # A joint check and a bare re-check keep the encoding reusable.
    _check_against_enumeration(s, T.and_(base, *assumptions), *assumptions)
    _check_against_enumeration(s, base)
    # Structured goals over one bitvector, shaped like entry coverage.
    width = rng.choice([4, 8, 16])
    x = T.bv_var(f"cov{width}", width)
    goals = [x.eq(T.bv_const(v % (1 << width), width)) for v in (0, 3, 7, 250)]
    s = Solver()
    s.add(x.ult(T.bv_const(8, width)))
    assert [s.check(g) for g in goals] == [
        Result.SAT, Result.SAT, Result.SAT, Result.UNSAT,
    ]


def test_pooled_reuse_agrees_across_configurations():
    # Two "table states" against one pooled solver: the second state's
    # constraints extend the first's warm encoding.
    x = T.bv_var("px", 6)
    y = T.bv_var("py", 6)
    state1 = [x.ult(T.bv_const(40, 6))]
    state2 = [y.eq(x + T.bv_const(1, 6))]
    goals = [
        x.eq(T.bv_const(3, 6)),
        T.and_(x.eq(T.bv_const(4, 6)), y.eq(T.bv_const(5, 6))),
        T.and_(x.eq(T.bv_const(4, 6)), y.eq(T.bv_const(9, 6))),
        x.eq(T.bv_const(50, 6)),
    ]
    pool = SolverPool()
    s = pool.solver(("prog", "profile"), state1)
    seq = [_check_against_enumeration(s, T.and_(*state1, goals[0]), goals[0])]
    s = pool.solver(("prog", "profile"), state1 + state2)
    seq.extend(
        _check_against_enumeration(s, T.and_(*state1, *state2, g), g) for g in goals[1:]
    )
    assert seq == [Result.SAT, Result.SAT, Result.UNSAT, Result.UNSAT]
    assert pool.hits == 1 and pool.misses == 1

    # Random table states over one shared variable pool, same discipline.
    rng = random.Random(8500)
    vars_ = _var_pool(rng)
    pool = SolverPool()
    asserted: List[T.Term] = []
    for _ in range(3):
        asserted.append(_small_bool(rng, 2, vars_))
        s = pool.solver(("prog", "random"), asserted)
        for _ in range(4):
            goal = _small_bool(rng, 2, vars_)
            _check_against_enumeration(s, T.and_(*asserted, goal), goal)
    assert pool.hits == 2 and pool.misses == 1


@pytest.mark.parametrize("seed", range(4))
def test_canonical_minimal_models_identical(seed):
    # minimal_assignment is the canonical-witness core: its output must be
    # the lexicographically first model, whatever the solver's history.
    rng = random.Random(9000 + seed)
    pool = _var_pool(rng, names=("ma", "mb"))
    a, b = pool.bvs
    width = a.width
    formula = T.and_(
        _small_bv(rng, 2, width, pool).eq(b),
        a.ult(T.bv_const((1 << width) - 2, width)),
        (a ^ b).ne(T.bv_const(0, width)),
    )
    variables = _variables(formula)
    expected = _first_model(formula)
    cold = minimal_assignment(Solver(), [formula], variables)
    # A solver with history: other formulas already encoded and checked
    # (as assumptions, so nothing constrains the formula under test).
    warm = Solver()
    for _ in range(3):
        warm.check(_small_formula(rng, pool))
    assert cold == expected
    assert minimal_assignment(warm, [formula], variables) == expected
    if expected is not None:
        assert T.evaluate(formula, expected) == 1


# ----------------------------------------------------------------------
# Wide-width formulas against the recorded verdicts
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", C.FORMULA_SEEDS)
def test_random_formulas_agree_across_encoders_and_kernels(seed):
    verdicts = C.formula_verdicts(seed)  # checks every SAT model too
    assert verdicts == GOLDEN["formula_verdicts"][str(seed)]
    # The generator reliably produces SAT formulas; a seed where it does
    # not would silently weaken the test.
    assert "sat" in verdicts


# ----------------------------------------------------------------------
# Clause economy: emitted-clause counts pinned at their recorded values
# ----------------------------------------------------------------------
# Clauses emitted by cold entry-coverage generation per shipped model, as
# recorded when the structural encoder replaced the Tseitin one (which
# emitted 1972 / 23164 / 23170 / 22679).  Counts are deterministic; an
# encoder change may lower a pin, never raise it.
CLAUSE_PINS = {"toy": 333, "tor": 3705, "wan": 3711, "cerberus": 3605}


class TestClauseEconomy:
    """The structural encoder's whole point: fewer clauses, shared gates."""

    def test_constant_folding_collapses_eq_with_const(self):
        x = T.bv_var("fx", 32)
        f = x.eq(T.bv_const(0xDEADBEEF, 32))
        s = Solver(simplify_terms=False)
        s.add(f)
        assert s.check() is Result.SAT
        assert s.model()["fx"] == 0xDEADBEEF
        # Per-bit iff-with-constant folds to a (possibly negated) bit
        # literal; the 32-way AND emits one direction only.  (Tseitin: 163.)
        assert s.stats["cnf_clauses"] <= 34

    def test_structural_hashing_shares_repeated_gates(self):
        # `x & y` and `y & x` are *different terms* (hash-consing cannot
        # merge them), but the per-bit AND gates normalize their argument
        # literals into sorted order, so the literal-level cache answers
        # the second encoding without fresh variables or clauses.
        x = T.bv_var("sx", 16)
        y = T.bv_var("sy", 16)
        f = T.and_(
            (x & y).eq(T.bv_const(0x00F0, 16)),
            (y & x).ne(T.bv_const(0, 16)),
        )
        s = Solver(simplify_terms=False)
        s.add(f)
        assert s.check() is Result.SAT
        assert T.evaluate(f, dict(s.model())) == 1
        assert s.stats["gates_shared"] >= 16
        assert s.stats["cnf_clauses"] <= 69

    def test_polarity_aware_encoding_beats_tseitin_on_goal_conjunctions(self):
        ip = T.bv_var("ip", 32)
        port = T.bv_var("port", 9)
        goals = [
            T.and_(
                ip.extract(31, 8).eq(T.bv_const(0x0A0B00 + i, 24)),
                port.ult(T.bv_const(16, 9)),
            )
            for i in range(20)
        ]
        s = Solver(simplify_terms=False)
        s.add(port.ne(T.bv_const(0, 9)))
        for g in goals:
            assert s.check(g) is Result.SAT
        # Recorded: 551 clauses, against 2645 from the Tseitin encoder.
        assert s.stats["cnf_clauses"] <= 551

    def test_stats_surface_cnf_counters(self):
        s = Solver()
        x = T.bv_var("cx", 8)
        s.add(x.eq(T.bv_const(5, 8)))
        assert s.check() is Result.SAT
        stats = s.stats
        for key in ("cnf_clauses", "gates_shared", "db_reductions",
                    "minimized_literals"):
            assert key in stats
        assert stats["cnf_clauses"] > 0

    @pytest.mark.parametrize("model", C.MODELS)
    def test_cold_generation_clause_counts_pinned(self, model):
        state = C.decode_state(C.p4info(model), C.entries_for(model))
        result = PacketGenerator(C.program(model), state).generate(CoverageMode.ENTRY)
        assert 0 < result.stats.cnf_clauses <= CLAUSE_PINS[model]
