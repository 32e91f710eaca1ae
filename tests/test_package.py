import re
import types
from pathlib import Path

import morseres


def test_all_lists_public_names_and_no_modules():
    assert morseres.__all__
    for name in morseres.__all__:
        assert not isinstance(getattr(morseres, name), types.ModuleType), name
    assert {"l2", "matching_l2", "graded_betti", "VariableSet"} <= set(morseres.__all__)


# One public name per question; a new alias or entry point shows up here.
PUBLIC_NAMES = [
    "BettiTable", "DivRel", "LabeledComplex", "Matching", "MatchingSpec", "Monomial",
    "MonomialIdeal", "MorseComplex", "RelationReport", "SimplicialComplex", "VariableSet",
    "admissible_subsets", "all_relations", "build_matching", "critical_cells",
    "critical_closed_form_l2", "critical_counts", "extremal_generators", "graded_betti",
    "graded_betti_via_interval", "gradient_cell_order", "is_acyclic", "is_homogeneous", "l2",
    "lcm_of", "matching_l2", "minimal_relations", "minimality_audit",
    "morse_complex", "n2_pairs", "pd_formula", "power_generators",
    "predicted_minimal_square_relations", "predicted_square_relations",
    "prune_taylor_first_power", "random_ideals",
    "random_squarefree_ideal", "relation_holds", "single_relation", "taylor",
    "verify_square_characterization",
]


def test_public_surface_is_pinned():
    assert sorted(morseres.__all__) == PUBLIC_NAMES


def test_only_l2_the_random_draws_and_the_nerve_collapse_are_memoized():
    # results live with their caller; `l2` shares one face list, `report`
    # shares its random draws between two suites, and the Betti oracle
    # shares the field-free collapse of each block tuple
    import importlib
    import pkgutil

    cached = set()
    for info in pkgutil.iter_modules(morseres.__path__):
        module = importlib.import_module(f"morseres.{info.name}")
        for value in vars(module).values():
            members = vars(value).values() if isinstance(value, type) else [value]
            cached.update(
                f"{m.__module__}.{m.__qualname__}" for m in members if hasattr(m, "cache_info")
            )
    assert cached == {
        "morseres.complexes.l2", "morseres.cli._random_ideals", "morseres.betti._collapse"
    }
    # the collapse memo is bounded by its module constant
    assert morseres.betti._collapse.cache_info().maxsize == morseres.betti.COLLAPSE_MEMO_SIZE


def test_star_import_binds_no_submodule():
    namespace = {}
    exec("from morseres import *", namespace)
    assert not any(isinstance(v, types.ModuleType) for v in namespace.values())


def test_readme_quick_start_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    assert len(blocks) == 1
    exec(blocks[0], {})
