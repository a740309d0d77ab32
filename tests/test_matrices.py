import json
from itertools import combinations, permutations

import pytest
from hypothesis import given, strategies as st

from coxlab.errors import InputError
from coxlab.matrices import (INFINITY, MAX_RANK, CoxeterMatrix, components,
                             is_finite, is_indecomposable,
                             is_infinite_indecomposable, nerve, parse_matrix,
                             spherical_subsets)
from coxlab.words import CoxeterGroup

from conftest import BENCH_MATRICES, CYCLE4, MATRICES
from oracles import element_count, has_finite_index_standard


def test_parse_json_triangle():
    m = parse_matrix('{"rank":3,"m":[[1,2,0],[2,1,3],[0,3,1]]}')
    assert m.rank == 3
    assert m.order(0, 1) == 2
    assert m.order(1, 2) == 3
    assert m.order(0, 2) == INFINITY
    assert m == MATRICES["t23inf"]


def test_parse_rank_one():
    m = parse_matrix('{"rank":1,"m":[[1]]}')
    assert m.rank == 1 and m.order(0, 0) == 1


@pytest.mark.parametrize("doc", [
    '{"rank":2,"m":[[1,3],[2,1]]}',     # asymmetric
    '{"rank":2,"m":[[2,3],[3,1]]}',     # bad diagonal
    '{"rank":0,"m":[]}',                # rank 0
    '{"rank":2,"m":[[1,1],[1,1]]}',     # off-diagonal 1
    '{"rank":2,"m":[[1,-3],[-3,1]]}',   # negative order
    '{"rank":2}',                       # missing m
    'rank 2\n1 2',                      # malformed line
    '',                                 # empty
    '{"rank":2,"m":[[1,0.0],[0.0,1]]}', # float order
    f'rank {MAX_RANK + 1}',             # rank over the cap
    '{"rank":' + '9' * 5000 + '}',      # integer too long to convert
    '{"m":' + '[' * 100_000 + ']' * 100_000 + '}',  # nested too deep
])
def test_parse_errors(doc):
    with pytest.raises(InputError):
        parse_matrix(doc)


def test_parse_rank_cap():
    rows = [[1 if i == j else 2 for j in range(MAX_RANK)]
            for i in range(MAX_RANK)]
    assert parse_matrix(f"rank {MAX_RANK}").rank == MAX_RANK
    assert parse_matrix(json.dumps({"rank": MAX_RANK, "m": rows})) == \
        parse_matrix(f"rank {MAX_RANK}")


def _parses_or_rejects(text):
    try:
        m = parse_matrix(text)
    except InputError:
        return False
    assert isinstance(m, CoxeterMatrix)
    assert 1 <= m.rank <= MAX_RANK and len(m.labels) == m.rank
    assert parse_matrix(m.to_json()) == m
    return True


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 6) | st.floats()
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["rank", "m", "labels", "x"]), inner,
                      max_size=4),
    max_leaves=24)


@st.composite
def _matrix_documents(draw):
    # a well-formed document with at most one field or entry replaced,
    # so that both outcomes occur and the checks past the header run
    n = draw(st.integers(1, 4))
    rows = [[1] * n for _ in range(n)]
    for i, j in combinations(range(n), 2):
        rows[i][j] = rows[j][i] = draw(st.sampled_from([0, 2, 3, 4, 6]))
    doc = {"rank": n, "m": rows, "labels": [f"s{i}" for i in range(n)]}
    spoil = draw(st.sampled_from([None, None, None, "rank", "m", "labels",
                                  "entry"]))
    if spoil == "entry":
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        rows[i][j] = draw(_json_values)
    elif spoil is not None:
        doc[spoil] = draw(_json_values)
    return doc


@st.composite
def _line_documents(draw):
    # a header and entry lines, each well-formed or token soup
    n = draw(st.integers(1, 4))
    token = st.sampled_from(["rank", "x", "#", "-1", "257", "0", "1", "2",
                             "3", "5"])
    soup = st.lists(token, max_size=4).map(" ".join)
    pairs = list(permutations(range(1, n + 1), 2)) or [(1, 2)]
    entry = st.tuples(st.sampled_from(pairs), st.sampled_from([0, 2, 3, 6])
                      ).map(lambda t: "%d %d %d" % (*t[0], t[1]))
    bad = st.tuples(st.integers(-1, n + 1), st.integers(-1, n + 1),
                    st.integers(-1, 6)).map(lambda t: "%d %d %d" % t) | soup
    header = draw(st.just(f"rank {n}") | soup)
    lines = st.lists(entry, max_size=4) | st.lists(entry | bad, max_size=4)
    return "\n".join([header] + draw(lines))


@given(text=st.text() | _line_documents())
def test_parse_arbitrary_text(text):
    _parses_or_rejects(text)


@given(doc=_matrix_documents() | _json_values)
def test_parse_arbitrary_json(doc):
    _parses_or_rejects(json.dumps(doc))


def test_parse_line_format_with_defaults():
    # omitted pairs default to 2; 0 means infinity
    m = parse_matrix("rank 3\n# the triangle\n2 3 3\n1 3 0\n")
    assert m == MATRICES["t23inf"]


def test_parse_line_format_conflicting_pair():
    # a pair listed twice must agree, in either order of its indices
    with pytest.raises(InputError, match="line 3.*line 2"):
        parse_matrix("rank 2\n1 2 3\n2 1 5")
    assert parse_matrix("rank 2\n1 2 3\n2 1 3").order(0, 1) == 3


@pytest.mark.parametrize("orders,labels", [
    ([[True, 3], [3, True]], None),   # True == 1, but is no order
    ([[1, 3], [3, 1]], "ab"),         # a string, not two labels
], ids=["diagonal-bool", "labels-str"])
def test_constructor_rejects(orders, labels):
    with pytest.raises(InputError):
        CoxeterMatrix(orders, labels=labels)


def test_json_round_trip():
    for m in MATRICES.values():
        assert parse_matrix(m.to_json()) == m


def test_components_examples():
    comps = components(MATRICES["t23inf"])
    assert len(comps) == 1 and comps[0].vertices == (0, 1, 2)
    assert is_indecomposable(MATRICES["t23inf"])

    comps = components(MATRICES["remark"])
    assert [c.vertices for c in comps] == [(0, 1), (2,)]
    assert not is_indecomposable(MATRICES["remark"])
    assert [c.finite for c in comps] == [False, True]

    assert len(components(CoxeterMatrix([[1]]))) == 1

    assert is_infinite_indecomposable(MATRICES["t23inf"])
    for name in ("remark", "h3", "i23"):
        assert not is_infinite_indecomposable(MATRICES[name]), name


def test_components_partition_and_edges_inside():
    for m in MATRICES.values():
        comps = components(m)
        flat = sorted(v for c in comps for v in c.vertices)
        assert flat == list(range(m.rank))
        index = {v: k for k, c in enumerate(comps) for v in c.vertices}
        for i in range(m.rank):
            for j in range(i + 1, m.rank):
                if m.order(i, j) >= 3:
                    assert index[i] == index[j]


FINITE_KINDS = [
    (CoxeterMatrix([[1]]), "A1"),
    (CoxeterMatrix.dihedral(3), "A2"),
    (CoxeterMatrix.dihedral(4), "B2"),
    (CoxeterMatrix.dihedral(7), "I2(7)"),
    (CoxeterMatrix.triangle(3, 3, 2), "A3"),
    (CoxeterMatrix.triangle(4, 3, 2), "B3"),
    (CoxeterMatrix.triangle(5, 3, 2), "H3"),
    (CoxeterMatrix([[1, 3, 2, 2], [3, 1, 3, 2], [2, 3, 1, 3],
                    [2, 2, 3, 1]]), "A4"),
    (CoxeterMatrix([[1, 4, 2, 2], [4, 1, 3, 2], [2, 3, 1, 3],
                    [2, 2, 3, 1]]), "B4"),
    (CoxeterMatrix([[1, 3, 4, 2], [3, 1, 2, 2], [4, 2, 1, 3],
                    [2, 2, 3, 1]]), "F4"),
    (CoxeterMatrix([[1, 5, 2, 2], [5, 1, 3, 2], [2, 3, 1, 3],
                    [2, 2, 3, 1]]), "H4"),
    # D4: branch vertex 1 joined to 0, 2, 3
    (CoxeterMatrix([[1, 3, 2, 2], [3, 1, 3, 3], [2, 3, 1, 2],
                    [2, 3, 2, 1]]), "D4"),
]


@pytest.mark.parametrize("matrix,kind", FINITE_KINDS)
def test_finite_classification(matrix, kind):
    comps = components(matrix)
    assert len(comps) == 1
    assert comps[0].kind == kind
    assert is_finite(matrix)


def _path_matrix(labels):
    n = len(labels) + 1
    rows = [[1 if i == j else 2 for j in range(n)] for i in range(n)]
    for k, m in enumerate(labels):
        rows[k][k + 1] = rows[k + 1][k] = m
    return CoxeterMatrix(rows)


def test_e_series():
    # E6/E7/E8: arm lengths (1,2,2), (1,2,3), (1,2,4) off a branch vertex
    def e_matrix(n):
        rows = [[1 if i == j else 2 for j in range(n)] for i in range(n)]
        # path 0-1-2-...-(n-2), extra vertex n-1 joined to vertex 2
        for k in range(n - 2):
            rows[k][k + 1] = rows[k + 1][k] = 3
        rows[2][n - 1] = rows[n - 1][2] = 3
        return CoxeterMatrix(rows)

    for n, kind in ((6, "E6"), (7, "E7"), (8, "E8")):
        comps = components(e_matrix(n))
        assert comps[0].kind == kind
    assert components(e_matrix(9))[0].kind == "infinite"  # affine E8


INFINITE_MATRICES = [
    CoxeterMatrix.dihedral(INFINITY),
    CoxeterMatrix.triangle(3, 3, 3),     # affine A2
    CoxeterMatrix.triangle(2, 4, 4),     # affine B2
    CoxeterMatrix.triangle(2, 3, 6),     # affine G2
    CoxeterMatrix.triangle(2, 3, 7),     # hyperbolic
    CoxeterMatrix.triangle(2, 5, 5),
    _path_matrix([3, 6]),                # 6 not allowed at rank >= 3
    _path_matrix([5, 3, 3, 3]),          # no H5
    _path_matrix([4, 3, 4]),             # affine C3
    _path_matrix([3, 5, 3]),             # 5 in the middle
]


@pytest.mark.parametrize("matrix", INFINITE_MATRICES)
def test_infinite_classification(matrix):
    assert not is_finite(matrix)


def test_classification_agrees_with_enumeration():
    # every rank-3 triangle matrix over small orders: the classifier and
    # a bounded element enumeration must agree (finite groups here have
    # at most 120 elements)
    orders = [2, 3, 4, 5, 6, INFINITY]
    for a in orders:
        for b in orders:
            for c in orders:
                m = CoxeterMatrix.triangle(a, b, c)
                count = element_count(CoxeterGroup(m), cap=300)
                if is_finite(m):
                    assert count is not None and count <= 240
                else:
                    assert count is None, (a, b, c)


def test_known_orders():
    assert element_count(CoxeterGroup(MATRICES["i23"])) == 6
    assert element_count(CoxeterGroup(MATRICES["a3"])) == 24
    assert element_count(CoxeterGroup(MATRICES["b3"])) == 48
    assert element_count(CoxeterGroup(MATRICES["h3"])) == 120


def test_nerve_examples():
    n = nerve(MATRICES["t23inf"])
    assert len(n.vertices) == 3
    assert n.edges() == [(0, 1), (1, 2)]
    assert n.f_vector() == (3, 2)

    n = nerve(MATRICES["univ3"])
    assert n.edges() == []
    assert n.f_vector() == (3,)

    n = nerve(MATRICES["h3"])
    assert n.f_vector() == (3, 3, 1)


def test_nerve_downward_closed_and_singletons():
    for name in ("t23inf", "t244", "h3", "remark", "a2aff"):
        nv = nerve(MATRICES[name])
        for i in range(MATRICES[name].rank):
            assert {i} in nv
        for t in nv.simplices:
            for v in t:
                smaller = t - {v}
                if smaller:
                    assert smaller in nv.simplices


def test_spherical_subsets_match_every_subset():
    # grown from spherical sets only, they are every spherical subset, by
    # size and then lexicographically
    for m in [*MATRICES.values(), *BENCH_MATRICES.values(), CYCLE4]:
        assert spherical_subsets(m) == [
            t for k in range(1, m.rank + 1)
            for t in combinations(range(m.rank), k)
            if is_finite(m.restrict(t))], m


def test_nerve_rank_cap():
    from coxlab.errors import BudgetError
    n = 17
    rows = [[1 if i == j else 2 for j in range(n)] for i in range(n)]
    with pytest.raises(BudgetError):
        nerve(CoxeterMatrix(rows))


def test_has_finite_index_standard_examples():
    m = MATRICES["t23inf"]
    assert not has_finite_index_standard(m, {1, 2})
    assert has_finite_index_standard(m, {0, 1, 2})
    assert has_finite_index_standard(MATRICES["remark"], {0, 1})
    assert not has_finite_index_standard(MATRICES["remark"], {0, 2})
    with pytest.raises(InputError):
        has_finite_index_standard(m, {5})


def test_standard_index_dichotomy_restates_deodhar():
    # infinite indecomposable: every proper standard subgroup has
    # infinite index
    from itertools import combinations
    for name in ("t23inf", "a2aff", "t244", "t237", "univ3", "a1aff"):
        m = MATRICES[name]
        assert not is_finite(m) and is_indecomposable(m)
        for k in range(m.rank):
            for t in combinations(range(m.rank), k):
                assert not has_finite_index_standard(m, t)
        assert has_finite_index_standard(m, range(m.rank))
