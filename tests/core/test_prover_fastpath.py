"""The LP-free cube fast path: soundness, agreement with linprog, lazy scipy.

The property test draws random conjunctions of linear integer constraints
and checks that the pure-Python fast path and the LP fallback never
contradict each other: both are sound, so whenever both are decisive they
must return the same verdict, and every SAT answer must carry a verified
assignment.
"""

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


def _lp_verdict(constraints, variables):
    """The verdict of the full solver with the fast path disabled."""
    saved = prover.USE_FAST_PATH
    prover.USE_FAST_PATH = False
    try:
        return _solve_int_constraints(constraints, variables)
    finally:
        prover.USE_FAST_PATH = saved


class TestFastPathAgreesWithLP:
    @settings(max_examples=200, deadline=None)
    @given(constraint_systems())
    def test_decisive_verdicts_agree(self, constraints):
        variables = {var: i for i, var in enumerate(VARS)}
        var_list = sorted(variables, key=variables.get)

        fast_verdict, fast_assignment = _fast_int_solve(constraints, var_list)
        lp_verdict, lp_assignment = _lp_verdict(constraints, variables)

        if fast_verdict == Verdict.SAT:
            assert _check_int_assignment(constraints, fast_assignment)
            assert lp_verdict != Verdict.UNSAT
        if lp_verdict == Verdict.SAT:
            assert _check_int_assignment(constraints, lp_assignment)
            assert fast_verdict != Verdict.UNSAT
        if fast_verdict == Verdict.UNSAT:
            assert lp_verdict != Verdict.SAT
        if lp_verdict == Verdict.UNSAT:
            assert fast_verdict != Verdict.SAT

    @settings(max_examples=100, deadline=None)
    @given(constraint_systems())
    def test_full_solver_matches_lp_only(self, constraints):
        """The combined solver (fast path + fallback) agrees with LP-only."""
        variables = {var: i for i, var in enumerate(VARS)}
        combined, _ = _solve_int_constraints(constraints, variables)
        lp_only, _ = _lp_verdict(constraints, variables)
        if Verdict.UNKNOWN not in (combined, lp_only):
            assert combined == lp_only


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
        # integer one; floor/ceil tightening must refute it LP-free
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

    def test_counters_move(self):
        before = dict(prover._memo_stats)
        _solve_int_constraints(
            [_IntConstraint({"z": 1}, "<=", 0)], {"z": 0}
        )
        after = prover._memo_stats
        moved = (
            after["fastpath_sat"] - before["fastpath_sat"]
            + after["fastpath_unsat"] - before["fastpath_unsat"]
            + after["fastpath_open"] - before["fastpath_open"]
        )
        assert moved == 1


class TestLazyScipy:
    def test_missing_lp_degrades_to_unknown(self, monkeypatch):
        """Hard cubes degrade to UNKNOWN (never crash) without scipy."""
        monkeypatch.setattr(prover, "_load_lp", lambda: None)
        monkeypatch.setattr(prover, "USE_FAST_PATH", False)
        before = prover._memo_stats["lp_unavailable"]
        verdict, assignment = _solve_int_constraints(
            [_IntConstraint({"a": 1}, "<=", 5)], {"a": 0}
        )
        assert verdict == Verdict.UNKNOWN
        assert assignment is None
        assert prover._memo_stats["lp_unavailable"] == before + 1

    def test_importing_prover_does_not_import_scipy(self):
        """scipy must stay unimported until the LP fallback is consulted."""
        code = textwrap.dedent(
            """
            import sys
            import repro.core.prover
            assert "scipy" not in sys.modules, "prover imported scipy eagerly"
            """
        )
        root = Path(__file__).resolve().parents[2]
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(root / "src"), "PATH": "/usr/bin:/bin"},
            cwd=root,
        )
        assert result.returncode == 0, result.stderr

    def test_concurrent_first_loads_agree(self):
        """Two threads racing the first ``_load_lp`` call see one backend.

        A thread that saw the backend as missing while another was still
        importing scipy would record an UNKNOWN cube in the process-wide
        query memo, so concurrent jobs could disagree with serial ones.
        """
        pytest.importorskip("scipy")
        code = textwrap.dedent(
            """
            import threading
            from repro.core import prover

            barrier = threading.Barrier(2)
            missing = []

            def load():
                barrier.wait()
                missing.append(prover._load_lp() is None)

            threads = [threading.Thread(target=load) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert missing == [False, False], missing
            """
        )
        root = Path(__file__).resolve().parents[2]
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(root / "src"), "PATH": "/usr/bin:/bin"},
            cwd=root,
        )
        assert result.returncode == 0, result.stderr
