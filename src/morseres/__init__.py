"""Cellular resolutions of squares of square-free monomial ideals.

Builds the generator simplex and the pair complex for second powers,
runs discrete Morse matchings driven by divisibility relations between
generators, and verifies the resulting cell counts, Betti numbers and
projective dimensions against an independent homology oracle.
"""

from types import ModuleType as _ModuleType

from .monomials import Monomial, MonomialIdeal, VariableSet, lcm_of
from .complexes import LabeledComplex, SimplicialComplex, l2, n2_pairs, taylor
from .extremal import (
    admissible_subsets,
    extremal_generators,
    power_generators,
    single_relation,
)
from .relations import (
    DivRel,
    RelationReport,
    all_relations,
    minimal_relations,
    minimality_audit,
    predicted_minimal_square_relations,
    predicted_square_relations,
    relation_holds,
    verify_square_characterization,
)
from .morse import (
    Matching,
    MatchingSpec,
    MorseComplex,
    build_matching,
    critical_cells,
    critical_closed_form_l2,
    critical_counts,
    gradient_cell_order,
    is_acyclic,
    is_homogeneous,
    matching_l2,
    morse_complex,
    prune_taylor_first_power,
)
from .betti import (
    BettiTable,
    graded_betti,
    graded_betti_via_interval,
    pd_formula,
)
from .sampling import random_ideals, random_squarefree_ideal

__all__ = [
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]

__version__ = "0.1.0"
