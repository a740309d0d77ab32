"""``order_of_product`` decides most infinite orders on integer brackets
of the two roots, and leaves the rest to exact field arithmetic: its
answers must be those of the unfiltered exact computation on every
benchmark matrix, with one counted decision per pair it answers afresh,
whatever precision each root's brackets were read at."""

from itertools import combinations

import pytest

from coxlab.algebraic import SIGN_BITS, SIGN_STATS, FieldSpec
from coxlab.matrices import INFINITY
from coxlab.words import CoxeterGroup

from conftest import BENCH_MATRICES, MATRICES
from oracles import floor_scaled_generator, form_by_rows, order_by_form_rows

# the benchmark matrices, and the affine (2,4,4) and (2,3,6), whose
# parallel walls have |C| = 2 with irrational root coordinates
GROUPS = {**BENCH_MATRICES, "t244": MATRICES["t244"],
          "t236": MATRICES["t236"]}
# reflection length budgets: a few hundred to a few thousand pairs each
LENGTHS = {"cycle4": 9, "n210": 9, "t237": 13, "t23oo": 11, "t255": 11,
           "t333": 11, "tooo": 9, "t244": 11, "t236": 11}


def _refine(field):
    """Force one refinement of the field's table of power brackets: the
    sign of 2^70 c - floor(2^70 c), in (0, 1), is beyond 64 bits."""
    floor = floor_scaled_generator(field, 70)
    near = field.raw_add(field.raw_from_int(-floor),
                         field.reduce([0, 2 ** 70]))
    before = SIGN_STATS.refinements
    assert field.sign_raw(near) == 1
    assert SIGN_STATS.refinements > before


@pytest.mark.parametrize("refine", [False, True],
                         ids=["one-precision", "refined-mid-run"])
@pytest.mark.parametrize("name", sorted(LENGTHS))
def test_filtered_orders_are_the_exact_orders(name, refine):
    m = GROUPS[name]
    group, oracle = CoxeterGroup(m), CoxeterGroup(m)
    walls = group.enumerate_reflections(LENGTHS[name])
    # the pairs of the first half of the walls come first, so the other
    # half's roots are first bracketed after the refinement
    half = len(walls) // 2
    early = list(combinations(walls[:half], 2))
    pairs = early + [(t, u) for t, u in combinations(walls, 2)
                     if u in walls[half:]]
    expected = [order_by_form_rows(oracle, t, u) for t, u in pairs]
    refines = refine and group.field.degree > 1
    fallbacks = SIGN_STATS.float_fallbacks
    for k, ((t, u), order) in enumerate(zip(pairs, expected)):
        if refines and k == len(early):
            _refine(group.field)
        decisions, misses = SIGN_STATS.decisions, len(group._order_memo)
        assert group.order_of_product(t, u) == order, (name, t, u)
        # one decision per pair answered afresh, bracketed or exact
        assert SIGN_STATS.decisions - decisions == \
            len(group._order_memo) - misses == 1
        assert group.order_of_product(u, t) == order
        assert SIGN_STATS.decisions - decisions == 1
    assert SIGN_STATS.float_fallbacks == fallbacks == 0
    if refines:
        # roots bracketed before and after the refinement met in pairs
        scales = {k for k, _ in group._coord_brackets.values()}
        assert group.field._powers[0] > SIGN_BITS
        assert len(scales) == 2, scales


@pytest.mark.parametrize("name", ["t244", "t236", "tooo"])
def test_parallel_walls_go_to_the_exact_path(name):
    # |C| = 2 exactly for parallel walls: a bracket of C that is not a
    # single point cannot settle them, and the exact path does (in the
    # rational field of (oo,oo,oo) it runs alone; the roots of (2,3,oo)
    # have rational coordinates, whose brackets are points)
    group = CoxeterGroup(GROUPS[name])
    f = group.field
    parallel = []
    for t, u in combinations(group.enumerate_reflections(9), 2):
        c = form_by_rows(group, t, u)
        if f.raw_mul(c, c) == f.raw_from_int(4):
            parallel.append((t, u))
    open_pairs = [(t, u) for t, u in parallel if f.degree == 1
                  or not group._surely_infinite(
                      *sorted(map(group.wall_root, (t, u))))]
    assert open_pairs
    for t, u in parallel:
        assert group.order_of_product(t, u) == INFINITY


def test_infinite_orders_need_no_field_products(monkeypatch):
    # once the roots' brackets are memoised, the compact hyperbolic
    # (2,3,7) group decides every infinite pair of walls with no field
    # product at all; a finite pair still needs the exact value
    m = BENCH_MATRICES["t237"]
    oracle = CoxeterGroup(m)
    group = CoxeterGroup(m)
    walls = group.enumerate_reflections(LENGTHS["t237"])
    pairs = list(combinations(walls, 2))
    orders = [order_by_form_rows(oracle, t, u) for t, u in pairs]
    for w in walls:
        group._form_row_brackets(group.wall_root(w))

    def no_products(self, a, b):
        raise AssertionError("field product on the bracket path")

    monkeypatch.setattr(FieldSpec, "raw_dot", no_products)
    infinite = [p for p, o in zip(pairs, orders) if o == INFINITY]
    assert len(infinite) > len(pairs) // 3
    for t, u in infinite:
        assert group.order_of_product(t, u) == INFINITY
    t, u = next(p for p, o in zip(pairs, orders) if o != INFINITY)
    with pytest.raises(AssertionError, match="bracket path"):
        group.order_of_product(t, u)
