"""Exact desk-scale computations tying partial Hasse flags, exterior-power
filtration levels, Bruhat cell orders and zip-group orbits together over
small finite fields."""

from .errors import DEFAULT_ENUM_BOUND, BoundExceededError
from .field import ContextMismatchError, FieldCtx, FieldElem
from .linalg import (Subspace, induced_filtration, wedge_basis_index, wedge_basis_subsets,
                     wedge_of_lines)
from .weyl import (Character, CocharDatum, WeylElem, all_weyl_elems, galois_act,
                   hodge_character, weyl_act, zipflag_pullback)
from .schubert import (INFINITE_ORDER, GroupElem, MultiPoly, PointP1n, all_points,
                       bruhat_word, hasse_section, monomial_weight,
                       projective_line_reps, stratum_label, torus_weight_space,
                       vanishing_order_at_point, vanishing_order_on_stratum)
from .zips import (HilbertZip, ZipReport, check_equivalence, enumerate_zips, line_in_block,
                   max_hodge_level, partial_hasse_flags, zip_from_json_obj, zip_to_json_obj)
from .zipgroup import (OrbitLabelError, ZipGroupElem, bruhat_census, enumerate_E, enumerate_G,
                       zip_act)

__version__ = "0.1.0"

__all__ = [
    "BoundExceededError", "Character", "CocharDatum", "ContextMismatchError",
    "DEFAULT_ENUM_BOUND", "FieldCtx", "FieldElem", "GroupElem", "HilbertZip",
    "INFINITE_ORDER", "MultiPoly", "OrbitLabelError", "PointP1n", "Subspace", "WeylElem",
    "ZipGroupElem", "ZipReport", "all_points",
    "all_weyl_elems", "bruhat_census", "bruhat_word", "check_equivalence",
    "enumerate_E", "enumerate_G", "enumerate_zips", "galois_act",
    "hasse_section", "hodge_character", "induced_filtration", "line_in_block",
    "max_hodge_level", "monomial_weight", "partial_hasse_flags",
    "projective_line_reps", "stratum_label", "torus_weight_space",
    "vanishing_order_at_point", "vanishing_order_on_stratum", "wedge_basis_index",
    "wedge_basis_subsets", "wedge_of_lines", "weyl_act", "zip_act",
    "zip_from_json_obj", "zip_to_json_obj", "zipflag_pullback",
]
