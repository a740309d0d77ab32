"""coxlab: exact chamber-level computations for Coxeter systems."""

from .algebraic import FieldSpec, SIGN_STATS, field_for
from .errors import (BudgetError, ConsistencyError, CoxlabError, FieldError,
                     InputError, PreconditionError)
from .matrices import (CoxeterMatrix, DiagramComponent, INFINITY, Nerve,
                       components, is_finite, is_indecomposable,
                       is_infinite_indecomposable, nerve, parse_matrix)
from .words import (CoxeterGroup, Element, Wall, root_span_rank,
                    word_from_text)
from .davis import (AngleSite, ChamberPolytope, angle_sites, check_andreev,
                    convex_hull, census_line, enumerate_convex_polytopes,
                    is_acute_angled, is_convex, is_coxeter_polytope, side,
                    stacan_pairs, verify_facet_bound)
from .subgroups import (ReflectionSubgroup, analyze, canonical_generators,
                        comm_condition, fundamental_polytope, induced_matrix,
                        nerve_deletion_check, search_equal_rank_subgroups,
                        subgroup_report, verify_rank_theorem)

__version__ = "0.1.0"
