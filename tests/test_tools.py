"""Every script under tools/ imports, with its `main` guarded.

The scripts import private names of `diowords` and of the test oracles
(`repetition._record_lpf`, `realnum._divmod`, `suffix_oracle.lpf_from_index`)
at module level, so a rename fails here rather than when a script is next run.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

TOOLS = sorted((Path(__file__).resolve().parent.parent / "tools").glob("*.py"))


@pytest.mark.parametrize("path", TOOLS, ids=lambda path: path.name)
def test_tool_imports(path, monkeypatch):
    # the scripts put src/ and tests/ on the path for their own imports
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(f"tools_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
