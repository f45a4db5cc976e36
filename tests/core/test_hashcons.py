"""Hash-consing invariants: interning, cached digests, pickle safety."""

import pickle

from repro.core import terms as tm
from repro.core.formula import (
    AbstractPred,
    And,
    Cmp,
    Formula,
    Not,
    TRUE,
    conj,
    eq,
    lt,
)
from repro.core.terms import (
    Add,
    HASH_CONSING,
    IntConst,
    Item,
    Local,
    Param,
    hashcons_stats,
)


def _deep(n=6):
    node = eq(Add(Item("x"), IntConst(1)), Param("p"))
    for i in range(n):
        node = And((node, lt(Item("x"), IntConst(i))))
    return node


class TestInterning:
    def test_equal_terms_are_identical(self):
        assert Item("x") is Item("x")
        assert Add(Item("x"), IntConst(1)) is Add(Item("x"), IntConst(1))

    def test_equal_formulas_are_identical(self):
        assert _deep() is _deep()

    def test_distinct_structures_stay_distinct(self):
        assert Item("x") is not Item("y")
        assert eq(Item("x"), IntConst(1)) is not eq(Item("x"), IntConst(2))

    def test_abstract_pred_is_never_interned(self):
        a = AbstractPred("labels printed", evaluator=lambda state, env: True)
        b = AbstractPred("labels printed", evaluator=lambda state, env: False)
        # equality ignores the evaluator, so interning would conflate them
        assert a == b
        assert a is not b

    def test_parents_of_abstract_preds_keep_their_evaluators(self):
        from repro.core.state import DbState

        yes = Not(AbstractPred("p", evaluator=lambda state, env: True))
        no = Not(AbstractPred("p", evaluator=lambda state, env: False))
        assert yes is not no
        assert yes.evaluate(DbState(), {}) is False
        assert no.evaluate(DbState(), {}) is True

    def test_parents_of_one_abstract_pred_still_intern(self):
        pred = AbstractPred("p", evaluator=lambda state, env: True)
        assert Not(pred) is Not(pred)
        assert conj(pred, eq(Item("x"), IntConst(1))) is conj(pred, eq(Item("x"), IntConst(1)))

    def test_intern_tables_report_sizes(self):
        Item("hashcons-stat-probe")
        stats = hashcons_stats()
        assert stats.get("Item", 0) >= 1

    def test_flag_defaults_on(self):
        assert HASH_CONSING is True


class TestCachedDigests:
    def test_hash_is_cached_on_the_instance(self):
        node = _deep()
        hash(node)
        assert node.__dict__.get("_hc_hash") == hash(node)

    def test_fingerprint_is_stable_and_cached(self):
        from repro.core.cache import fingerprint

        node = _deep()
        first = fingerprint(node)
        assert fingerprint(node) == first
        assert node.__dict__.get("_hc_fp") == first

    def test_atom_set_cached(self):
        node = _deep()
        atoms = node.atom_set()
        assert node.atom_set() is atoms
        assert Item("x") in atoms


class TestSubstitution:
    def test_identity_preserving_on_untouched_trees(self):
        node = _deep()
        assert node.substitute({Item("absent"): IntConst(0)}) is node

    def test_substitution_still_rewrites(self):
        node = eq(Item("x"), Param("p"))
        rewritten = node.substitute({Param("p"): IntConst(7)})
        assert rewritten is eq(Item("x"), IntConst(7))

    def test_partial_sharing(self):
        left = eq(Item("x"), IntConst(1))
        right = eq(Param("p"), IntConst(2))
        both = And((left, right))
        rewritten = both.substitute({Param("p"): Local("l")})
        assert isinstance(rewritten, And)
        # the untouched conjunct is shared, not rebuilt
        assert rewritten.operands[0] is left


class TestPickle:
    def test_roundtrip_drops_node_caches(self):
        node = _deep()
        hash(node)
        node.fingerprint()
        clone = pickle.loads(pickle.dumps(node))
        assert clone == node
        assert "_hc_hash" not in clone.__dict__
        assert "_hc_fp" not in clone.__dict__

    def test_roundtrip_re_interns_on_equality(self):
        node = eq(Item("x"), IntConst(3))
        clone = pickle.loads(pickle.dumps(node))
        # unpickling builds an equal node; memo probes hit via equality
        assert clone == node
        assert hash(clone) == hash(node)


class TestProjectable:
    def test_structural_formulas_project(self):
        assert _deep().projectable() is True
        assert TRUE.projectable() is True

    def test_abstract_pred_trees_do_not(self):
        opaque = AbstractPred("prose clause", evaluator=lambda state, env: True)
        assert opaque.projectable() is False
        assert And((TRUE, opaque)).projectable() is False
        assert Not(opaque).projectable() is False
