"""The integer cube solver: soundness, a brute-force oracle, no scipy.

The property test draws random conjunctions of linear integer constraints
over at most three variables and compares the solver with exhaustive
enumeration of a box around the origin: the solver may never call a cube
UNSAT when the box holds a solution, and every SAT answer must carry an
assignment that satisfies every constraint.  The regression corpus
(``data/lp_cubes.json``) holds the cubes that used to need an LP
relaxation, each with the verdict that relaxation gave.
"""

import itertools
import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import prover
from repro.core.prover import (
    Verdict,
    _IntConstraint,
    _check_int_assignment,
    _fast_int_solve,
    _solve_int_constraints,
)

VARS = ("a", "b", "c")

#: Half-width of the box the brute-force oracle enumerates.
ORACLE_RADIUS = 6

CUBES = json.loads((Path(__file__).parent / "data" / "lp_cubes.json").read_text())


@st.composite
def constraint_systems(draw):
    """A small conjunction of integer constraints over at most three vars."""
    n_constraints = draw(st.integers(min_value=1, max_value=5))
    constraints = []
    for _ in range(n_constraints):
        n_vars = draw(st.integers(min_value=0, max_value=len(VARS)))
        chosen = draw(
            st.lists(
                st.sampled_from(VARS), min_size=n_vars, max_size=n_vars, unique=True
            )
        )
        coeffs = {
            var: draw(st.integers(min_value=-4, max_value=4).filter(bool))
            for var in chosen
        }
        rel = draw(st.sampled_from(("<=", "==")))
        bound = draw(st.integers(min_value=-12, max_value=12))
        constraints.append(_IntConstraint(coeffs=coeffs, rel=rel, bound=bound))
    return constraints


def _box_solution(constraints):
    """A solution with every variable within ``ORACLE_RADIUS`` of 0, or None."""
    span = range(-ORACLE_RADIUS, ORACLE_RADIUS + 1)
    for values in itertools.product(span, repeat=len(VARS)):
        assignment = dict(zip(VARS, values))
        if _check_int_assignment(constraints, assignment):
            return assignment
    return None


class TestAgainstBoxOracle:
    @settings(max_examples=200, deadline=None)
    @given(constraint_systems())
    def test_never_refutes_a_box_solution(self, constraints):
        variables = {var: i for i, var in enumerate(VARS)}
        verdict, assignment = _solve_int_constraints(constraints, variables)
        if verdict == Verdict.SAT:
            assert _check_int_assignment(constraints, assignment)
        if verdict == Verdict.UNSAT:
            assert _box_solution(constraints) is None


def _corpus_constraints(cube):
    return [
        _IntConstraint({var: coeff for var, coeff in coeffs}, rel, bound)
        for coeffs, rel, bound in cube["rows"]
    ]


class TestLpCubeCorpus:
    """Cubes the bounds, box and probe steps leave open, from the bundled
    apps and appgen seeds 0–11, with the verdict ``linprog`` gave them."""

    @pytest.mark.parametrize(
        "cube", CUBES, ids=[f"{cube['source']}-{i}" for i, cube in enumerate(CUBES)]
    )
    def test_keeps_the_lp_verdict(self, cube):
        constraints = _corpus_constraints(cube)
        variables = {i: i for i in range(cube["n"])}
        verdict, assignment = _solve_int_constraints(constraints, variables)
        assert verdict == cube["verdict"]
        if verdict == Verdict.SAT:
            assert _check_int_assignment(constraints, assignment)


class TestKnownCubes:
    def test_trivial_sat(self):
        cs = [_IntConstraint({"a": 1}, "<=", 5)]
        verdict, assignment = _fast_int_solve(cs, ["a"])
        assert verdict == Verdict.SAT
        assert _check_int_assignment(cs, assignment)

    def test_contradictory_bounds_unsat(self):
        cs = [
            _IntConstraint({"a": 1}, "<=", 3),
            _IntConstraint({"a": -1}, "<=", -5),  # a >= 5
        ]
        assert _fast_int_solve(cs, ["a"])[0] == Verdict.UNSAT

    def test_integer_tightening_refutes_rational_cube(self):
        # 2a <= 1 and 2a >= 1 has the rational solution a = 1/2 but no
        # integer one; floor/ceil tightening must refute it
        cs = [
            _IntConstraint({"a": 2}, "<=", 1),
            _IntConstraint({"a": -2}, "<=", -1),
        ]
        assert _fast_int_solve(cs, ["a"])[0] == Verdict.UNSAT

    def test_equality_chain_sat(self):
        cs = [
            _IntConstraint({"a": 1, "b": -1}, "==", 0),
            _IntConstraint({"b": 1}, "==", 7),
        ]
        verdict, assignment = _fast_int_solve(cs, ["a", "b"])
        assert verdict == Verdict.SAT
        assert assignment["a"] == 7 and assignment["b"] == 7

    @pytest.mark.parametrize(
        "coeffs, rel, bound",
        [
            # bounds neither variable and fails every corner probe
            ({"a": 1, "b": -1}, "<=", -2),
            # a's interval from b = 0 is [1/2, inf): its lower end rounds up
            ({"a": -2, "b": 1}, "<=", -1),
            # b = 0 leaves a = 1/3 and b = 1 leaves a = 2/3: back-substitution
            # must backtrack to b = -1, a = 0
            ({"a": 3, "b": -1}, "==", 1),
        ],
    )
    def test_unbounded_cube_gets_a_model(self, coeffs, rel, bound):
        cs = [_IntConstraint(coeffs, rel, bound)]
        verdict, assignment = _fast_int_solve(cs, ["a", "b"])
        assert verdict == Verdict.SAT
        assert _check_int_assignment(cs, assignment)

    def test_unbounded_rational_only_cube_unsat(self):
        # 2a - 2b == 1 is rationally feasible and bounds nothing, but has no
        # integer solution: the gcd-divided rows a - b <= 0 and b - a <= -1
        # eliminate to 0 <= -1
        cs = [_IntConstraint({"a": 2, "b": -2}, "==", 1)]
        assert _fast_int_solve(cs, ["a", "b"])[0] == Verdict.UNSAT

    def test_counters_move(self):
        before = dict(prover._memo_stats)
        _solve_int_constraints(
            [_IntConstraint({"z": 1}, "<=", 0)], {"z": 0}
        )
        after = prover._memo_stats
        moved = (
            after["cubes_sat"] - before["cubes_sat"]
            + after["cubes_unsat"] - before["cubes_unsat"]
            + after["cubes_open"] - before["cubes_open"]
        )
        assert moved == 1


class TestLazyScipy:
    """scipy stays unloaded: nothing in the prover imports it any more."""

    def test_importing_prover_does_not_import_scipy(self):
        """Neither importing the prover nor a whole analysis loads scipy,
        and the analysis leaves no integer cube undecided."""
        code = textwrap.dedent(
            """
            import contextlib
            import io
            import sys
            import repro.core.prover
            assert "scipy" not in sys.modules, "prover imported scipy eagerly"
            from repro.cli import main
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(["analyze", "banking", "--no-persist", "--json"])
            assert code == 0, code
            for name in ("scipy", "numpy"):
                assert name not in sys.modules, f"analysis imported {name}"
            stats = repro.core.prover.prover_cache_stats()
            assert stats["cubes_sat"] > 0 and stats["cubes_open"] == 0, stats
            """
        )
        root = Path(__file__).resolve().parents[2]
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={
                "PYTHONPATH": str(root / "src"),
                "PATH": "/usr/bin:/bin",
                "PYTHONDONTWRITEBYTECODE": "1",
            },
            cwd=root,
        )
        assert result.returncode == 0, result.stderr
