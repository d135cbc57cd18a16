"""Every script under tools/ imports, with its `main` guarded.

The scripts import private names of `diowords` and of the test oracles
(`repetition._z_array`, `realnum._divmod`, `suffix_oracle.lpf_from_index`)
at module level, so a rename fails here rather than when a script is next run.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

TOOLS_DIR = Path(__file__).resolve().parent.parent / "tools"
TOOLS = sorted(TOOLS_DIR.glob("*.py"))


def load(path, monkeypatch):
    # the scripts put src/ and tests/ on the path for their own imports
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(f"tools_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("path", TOOLS, ids=lambda path: path.name)
def test_tool_imports(path, monkeypatch):
    assert callable(load(path, monkeypatch).main)


def test_unknown_section_exits_2_naming_every_section(monkeypatch, capsys):
    kernel_check = load(TOOLS_DIR / "kernel_check.py", monkeypatch)
    with pytest.raises(SystemExit) as exc:
        kernel_check.main(["euclid", "nope"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""  # no section ran, not even the known one
    assert "unknown section nope" in err
    assert all(name in err for name in kernel_check.SECTIONS)
