"""The form in its own field.  A group works in Q(2cos(pi/N)) with N the
lcm of its orders m >= 4 (``field_for``); coxlab used to take N = lcm(2,
all finite orders), degree 12 rather than 3 for (2,3,7) and 48 rather
than 12 for n210.  That wider field is kept here as the differential
oracle: every answer of the word, wall and chamber layers, and the CLI's
bytes, must be the same in both.  The one order rule,
``FieldSpec.rotation_order``, is checked against the Chebyshev
recurrence, which reads no table."""

import random
from itertools import combinations
from math import lcm

import pytest

from coxlab import words
from coxlab.algebraic import FieldSpec
from coxlab.cli import main
from coxlab.matrices import CoxeterMatrix

from conftest import BENCH_MATRICES, MATRICES
from oracles import order_by_chebyshev

GROUPS = {**BENCH_MATRICES, "t244": MATRICES["t244"],
          "t236": MATRICES["t236"],
          "t2311": CoxeterMatrix.triangle(2, 3, 11)}
# reflection length budgets: at most a few hundred walls each
LENGTHS = {"cycle4": 7, "n210": 7, "t237": 11, "t23oo": 9, "t255": 9,
           "t333": 9, "tooo": 7, "t244": 9, "t236": 9, "t2311": 11}
CLI_BUDGET = 5


def wide_field(matrix):
    """The field coxlab used before: N = lcm(2, every finite order)."""
    return FieldSpec(lcm(2, *matrix.finite_orders()))


def _answers(name):
    """What the word and wall layers answer: the field, ball words,
    reflection displays, the order of every pair of those walls, the
    number of elementary roots, and normal forms of seeded words drawn as
    the walls benchmark draws them (no letter repeated at once)."""
    m = GROUPS[name]
    g = words.CoxeterGroup(m)
    walls = g.enumerate_reflections(LENGTHS[name])
    rng = random.Random(34)
    seeded = []
    for _ in range(20):
        w = [rng.randrange(m.rank)]
        while len(w) < 40:
            a = rng.randrange(m.rank)
            if a != w[-1]:
                w.append(a)
        seeded.append(w)
    return {"field": (g.field.N, g.field.degree),
            "ball": [x.word for x in g.ball(8)],
            "reflections": [w.reflection.display() for w in walls],
            "orders": [g.order_of_product(t, u)
                       for t, u in combinations(walls, 2)],
            "elementary": len(g._small_roots),
            "normal_forms": [g.normal_form(w).word for w in seeded]}


def _cli_bytes(name, tmp_path, capsys):
    """``polytopes --emit`` file bytes and ``verify --suite all --json``
    report, each after its exit code, at the chamber budget CLI_BUDGET."""
    tmp_path.mkdir()
    path = tmp_path / f"{name}.json"
    path.write_text(GROUPS[name].to_json())
    emit = tmp_path / f"{name}.jsonl"
    budget = str(CLI_BUDGET)
    out = [main(["polytopes", str(path), "--max-chambers", budget,
                 "--emit", str(emit)]), emit.read_bytes()]
    capsys.readouterr()
    out.append(main(["verify", str(path), "--suite", "all",
                     "--max-chambers", budget, "--json"]))
    out.append(capsys.readouterr().out)
    return out


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_narrow_field_answers_as_the_wide_one(name, monkeypatch, tmp_path,
                                              capsys):
    narrow = _answers(name), _cli_bytes(name, tmp_path / "narrow", capsys)
    monkeypatch.setattr(words, "field_for", wide_field)
    wide = _answers(name), _cli_bytes(name, tmp_path / "wide", capsys)
    assert narrow[0].pop("field")[1] <= wide[0].pop("field")[1]
    assert narrow == wide
    assert narrow[1][0] == 0 and narrow[1][1]


def test_the_narrow_fields_are_narrower():
    # the field sizes the change is for: (2,3,7) in degree 3 rather than
    # 12, n210 in 12 rather than 48, and rational forms in Q
    degrees = {name: (words.field_for(m).degree, wide_field(m).degree)
               for name, m in GROUPS.items()}
    assert degrees["t237"] == (3, 12)
    assert degrees["n210"] == (12, 48)
    assert degrees["t2311"] == (5, 20)
    for name in ("t23oo", "t333", "cycle4"):
        assert degrees[name] == (1, 2), name


# field orders: every m in 2..12, and the divisors of 210
ORDERS = sorted(set(range(2, 13)) | {d for d in range(2, 211) if 210 % d == 0})


@pytest.mark.parametrize("m", ORDERS)
def test_rotation_order_matches_chebyshev(m):
    # in the field of N = m, 2cos(2 pi/k) for every k | m, k >= 2, is read
    # as order k, as the Chebyshev recurrence reads it; so is every
    # table value for m <= 12, and the rational values of orders 3, 4, 6,
    # whether or not the table holds them.  Values naming no order read
    # as None
    f = FieldSpec(m)
    c = f.reduce([0, 1])
    two = f.raw_from_int(2)
    # V_j = 2cos(j pi/N) by the recurrence the field tables it with
    table = [two, c]
    for _ in range(m - 1):
        table.append(f.raw_sub(f.raw_mul(c, table[-1]), table[-2]))
    for k in range(2, m + 1):
        if m % k == 0:
            # V_(2m/k), read by the symmetry j -> 2m - j when 2m/k > m
            j = 2 * m // k
            v = table[min(j, 2 * m - j)]
            assert f.rotation_order(v) == order_by_chebyshev(f, v) == k, \
                (m, k)
    if m <= 12:
        for v in table[1:]:
            assert f.rotation_order(v) == order_by_chebyshev(f, v), m
    for v, k in ((-1, 3), (0, 4), (1, 6)):
        raw = f.raw_from_int(v)
        assert f.rotation_order(raw) == k, (m, v)
        if k <= 2 * m:
            assert order_by_chebyshev(f, raw) == k, (m, v)
    assert f.rotation_order(two) is None
    assert f.rotation_order(f.raw_from_int(3)) is None
