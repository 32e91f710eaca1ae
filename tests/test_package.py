import re
import types
from pathlib import Path

import morseres


def test_all_lists_public_names_and_no_modules():
    assert morseres.__all__
    for name in morseres.__all__:
        assert not isinstance(getattr(morseres, name), types.ModuleType), name
    assert {"l2", "matching_l2", "graded_betti", "VariableSet"} <= set(morseres.__all__)


def test_star_import_binds_no_submodule():
    namespace = {}
    exec("from morseres import *", namespace)
    assert not any(isinstance(v, types.ModuleType) for v in namespace.values())


def test_readme_quick_start_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    assert len(blocks) == 1
    exec(blocks[0], {})
