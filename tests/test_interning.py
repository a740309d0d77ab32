"""One interned ``Element`` per normal form: a group hands out one object
per word, the one its chamber record holds (``CoxeterGroup._element``),
and ``step`` reads the chamber's adjacency row.  Elements stay values:
one built directly, or by another group of the same matrix, compares and
hashes equal to the group's object, and elements and walls survive
copying and pickling."""

import copy
import pickle
import random
import re
import sys
import threading
import time

import pytest

from coxlab.davis import angle_sites, convex_hull
from coxlab.errors import BudgetError
from coxlab.words import CoxeterGroup, Element, Wall

from conftest import MATRICES


def _words(rng, count, length):
    return [tuple(rng.randrange(3) for _ in range(rng.randrange(length)))
            for _ in range(count)]


def _answers(group, words):
    """normal_form, a step-by-step walk, multiply and inverse, per word."""
    out = []
    e = group.identity()
    for i, w in enumerate(words):
        x = group.normal_form(w)
        walk = e
        for a in w:
            walk = group.step(walk, a)
        other = group.normal_form(words[i - 1])
        out.append((x, walk, group.multiply(x, other), group.inverse(x)))
    return out


def test_cold_group_interns_one_element_per_word():
    # eight threads start together on cold (2,3,7) groups, one group after
    # another for two seconds, and race step, normal_form, multiply and
    # inverse over the same words: each answer must be the serial one,
    # every thread must hold the same object for it, and that object must
    # be the one ``_element`` returns for its word afterwards
    rng = random.Random(18)
    words = _words(rng, 40, 24)
    expected = _answers(CoxeterGroup(MATRICES["t237"]), words)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        deadline = time.monotonic() + 2
        while time.monotonic() < deadline:
            group = CoxeterGroup(MATRICES["t237"])
            start = threading.Barrier(8, timeout=30)
            got = [None] * 8

            def work(k, group=group, start=start, got=got):
                start.wait()
                got[k] = _answers(group, words)

            threads = [threading.Thread(target=work, args=(k,))
                       for k in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
            assert got == [expected] * 8
            for i, row in enumerate(got[0]):
                for j, x in enumerate(row):
                    assert group._element(x.word) is x
                    assert all(got[k][i][j] is x for k in range(8))
            assert len(group._ids) == len(group._chambers)
            for record in group._chambers:
                for j, _ in record[4] or ():
                    x = group.chamber(j)
                    assert group._element(x.word) is x
    finally:
        sys.setswitchinterval(switch)


def test_every_element_handed_out_is_interned():
    group = CoxeterGroup(MATRICES["t237"])
    g = group.normal_form((0, 1, 2, 1, 0))
    w = group.wall_between(g, 2)
    handed = [group.identity(), group.generator(1), g,
              group.step(g, 1), group.multiply(g, g), group.inverse(g),
              w.reflection, group.as_reflection(w.reflection).reflection]
    for x in handed:
        assert group._element(x.word) is x
    assert group.normal_form(g.word) is g
    assert group.step(group.step(g, 1), 1) is g


def test_user_built_element_is_the_interned_value():
    group = CoxeterGroup(MATRICES["t237"])
    g = group.normal_form((0, 1, 2, 0, 1))
    u = Element(g.word)
    assert u is not g
    assert u == g and g == u and hash(u) == hash(g)
    assert {u: 1}[g] == 1
    nxt = group.step(g, 2)
    size = len(group._chambers)
    other = CoxeterGroup(MATRICES["t237"])
    twin = other.normal_form(g.word)

    def no_product(word, t):
        raise AssertionError("step missed its adjacency row")

    # an equal element built directly, or by another group of the same
    # matrix, hits the row the group's own object filled
    group._mult_gen = no_product
    assert group.step(u, 2) is nxt
    assert group.step(twin, 2) is nxt
    del group._mult_gen
    assert len(group._chambers) == size
    assert other.step(g, 2) == nxt
    assert u != g.word and u != Element(g.word + (0,))


def test_step_reads_the_adjacency_row():
    group = CoxeterGroup(MATRICES["t23inf"])
    for g in group.ball(5):
        row = group.adjacent(group.chamber_id(g))
        for s in range(group.rank):
            x = group.chamber(row[s][0])
            assert group.step(g, s) is x
            assert group.step(Element(g.word), s) is x


def test_element_is_immutable():
    g = CoxeterGroup(MATRICES["t237"]).normal_form((0, 1, 2))
    for name in ("word", "_hash", "extra"):
        with pytest.raises(AttributeError):
            setattr(g, name, (0,))
        with pytest.raises(AttributeError):
            delattr(g, name)
    assert g.word == (0, 1, 2)
    assert not hasattr(g, "__dict__")


def test_wall_is_immutable():
    # a group hands every caller its one memoised wall per root, so an
    # assignment would change every later answer for that root
    group = CoxeterGroup(MATRICES["t237"])
    wall = group.generator_wall(0)
    for name in ("reflection", "witness", "sort_key", "_hash", "extra"):
        with pytest.raises(AttributeError):
            setattr(wall, name, group.generator(1))
        with pytest.raises(AttributeError):
            delattr(wall, name)
    assert not hasattr(wall, "__dict__")
    assert group.generator_wall(0) is wall
    assert group.wall_between(group.identity(), 0) is wall
    assert wall.reflection == group.generator(0)
    assert wall.witness == (group.identity(), 0)
    assert hash(wall) == hash(Wall(group.generator(0), wall.witness))


@pytest.mark.parametrize("kind", ["Element", "Wall", "ChamberPolytope",
                                  "AngleSite"])
def test_value_is_immutable(kind):
    # the four value classes share one protocol: setting or deleting any
    # attribute, a slot or not, raises and names the class
    group = CoxeterGroup(MATRICES["t237"])
    g = group.normal_form((0, 1, 2))
    polytope = convex_hull(group, [group.identity(), g])
    values = [g, group.generator_wall(0), polytope,
              angle_sites(group, polytope)[0]]
    [value] = [v for v in values if type(v).__name__ == kind]
    slots = type(value).__slots__
    before = [getattr(value, name) for name in slots]
    for name in slots + ("extra",):
        for action, attempt in (("set", lambda: setattr(value, name, 0)),
                                ("delete", lambda: delattr(value, name))):
            message = f"{kind} is immutable: cannot {action} {name!r}"
            with pytest.raises(AttributeError, match=re.escape(message)):
                attempt()
    assert [getattr(value, name) for name in slots] == before
    assert not hasattr(value, "__dict__")


def test_element_and_wall_survive_copy_and_pickle():
    group = CoxeterGroup(MATRICES["t237"])
    g = group.normal_form((0, 1, 2, 0))
    wall = group.wall_between(g, 1)
    copies = [copy.copy(g), copy.deepcopy(g)] + [
        pickle.loads(pickle.dumps(g, protocol))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for x in copies:
        assert type(x) is Element
        assert x == g and hash(x) == hash(g) and x.word == g.word
        assert group.step(x, 1) is group.step(g, 1)
        with pytest.raises(AttributeError):
            x.word = ()
    walls = [copy.copy(wall), copy.deepcopy(wall)] + [
        pickle.loads(pickle.dumps(wall, protocol))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for x in walls:
        assert type(x) is Wall
        assert x == wall and hash(x) == hash(wall)
        assert x.witness == wall.witness and x.sort_key == wall.sort_key
        assert group.panel_root(*x.witness) == group.panel_root(g, 1)
        assert group.wall_between(*x.witness) is wall


@pytest.mark.parametrize("name", ["t237", "t23inf", "a2aff"])
def test_built_elements_are_values(name):
    # ``ball`` and ``_id`` build their elements without ``__init__``: each
    # must still refuse assignment and deletion, equal and hash like
    # ``Element(word)``, and come back whole from a pickle
    group = CoxeterGroup(MATRICES[name])
    ball = group.ball(5)
    interned = [group.normal_form(g.word) for g in ball]
    for g in ball + interned:
        direct = Element(g.word)
        assert type(g) is Element and not hasattr(g, "__dict__")
        assert g == direct and direct == g and hash(g) == hash(direct)
        for attr in ("word", "_hash", "extra"):
            with pytest.raises(AttributeError, match="immutable"):
                setattr(g, attr, ())
            with pytest.raises(AttributeError, match="immutable"):
                delattr(g, attr)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(g, protocol))
            assert type(back) is Element and back == g
            assert hash(back) == hash(g) and back.word == g.word
    assert len(set(ball) | set(interned)) == len(ball)


@pytest.mark.parametrize("name,radius", [("t237", 9), ("t23inf", 7),
                                         ("a2aff", 6), ("h3", None)])
def test_ball_cap_is_exact(name, radius):
    # the cap is checked once per parent, with the outcome of a check per
    # element: a ball of exactly ``cap`` elements returns, one more raises
    group = CoxeterGroup(MATRICES[name])
    size = len(group.ball(radius))
    assert group.ball(radius, cap=size) == group.ball(radius)
    with pytest.raises(BudgetError):
        group.ball(radius, cap=size - 1)
