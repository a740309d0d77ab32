from pathlib import Path

import pytest
from hypothesis import settings

from coxlab.davis import enumerate_convex_polytopes
from coxlab.matrices import INFINITY, CoxeterMatrix, parse_matrix
from coxlab.words import CoxeterGroup

# property tests draw the same examples on every run and keep no example
# database, so a run leaves nothing behind and repeats exactly
settings.register_profile("coxlab", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("coxlab")

MATRICES = {
    "t23inf": CoxeterMatrix.triangle(2, 3, INFINITY),
    "remark": CoxeterMatrix.triangle(INFINITY, 2, 2),  # m12=oo, m23=m13=2
    "a1aff": CoxeterMatrix.dihedral(INFINITY),
    "a2aff": CoxeterMatrix.triangle(3, 3, 3),
    "t244": CoxeterMatrix.triangle(2, 4, 4),
    "t236": CoxeterMatrix.triangle(2, 3, 6),
    "t237": CoxeterMatrix.triangle(2, 3, 7),
    "t255": CoxeterMatrix.triangle(2, 5, 5),
    "univ3": CoxeterMatrix.triangle(INFINITY, INFINITY, INFINITY),
    "i23": CoxeterMatrix.dihedral(3),
    "a3": CoxeterMatrix.triangle(3, 3, 2),      # path 1-2-3, labels 3,3
    "b3": CoxeterMatrix.triangle(4, 3, 2),
    "h3": CoxeterMatrix.triangle(5, 3, 2),
}

# affine A3: a 4-cycle of order-3 edges
CYCLE4 = CoxeterMatrix([[1, 3, 2, 3], [3, 1, 3, 2],
                        [2, 3, 1, 3], [3, 2, 3, 1]])


# the benchmark's matrix files, by file stem
BENCH_MATRICES = {
    p.stem: parse_matrix(p.read_text())
    for p in sorted((Path(__file__).resolve().parent.parent
                     / "bench" / "inputs").glob("*.json"))}


class Lab:
    """Session cache of groups and censuses (censuses are the slow part)."""

    def __init__(self):
        self._groups = {}
        self._census = {}

    def matrix(self, name):
        return MATRICES[name]

    def group(self, name):
        if name not in self._groups:
            self._groups[name] = CoxeterGroup(MATRICES[name])
        return self._groups[name]

    def census(self, name, max_chambers):
        have = self._census.get(name)
        if have is None or have[0] < max_chambers:
            polys = list(enumerate_convex_polytopes(self.group(name),
                                                    max_chambers))
            self._census[name] = (max_chambers, polys)
            have = self._census[name]
        return [p for p in have[1] if len(p.chambers) <= max_chambers]


@pytest.fixture(scope="session")
def lab():
    return Lab()
