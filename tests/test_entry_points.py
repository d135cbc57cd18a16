"""The benchmark's span recorder binds the diowords entry points by name.

`perfbench/spans.py` lists them in ENTRY_POINTS, and its probes read a
few attributes off what they return.  A rename or deletion in `src/`
would break the traced benchmark run, whose own recorder test is slow
and lives outside `tests/`, so this checks the names quickly.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from diowords import contfrac, realnum

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _entry_points():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(layer, name) for layer, names in spans.ENTRY_POINTS.items() for name in names]


@pytest.mark.parametrize("layer, name", _entry_points())
def test_entry_point_resolves(layer, name):
    module = importlib.import_module(f"diowords.{layer}")
    if "." in name:
        # the recorder wraps a method where its class defines it
        cls_name, attr = name.split(".")
        assert callable(vars(getattr(module, cls_name)).get(attr))
    else:
        assert callable(getattr(module, name, None))


# What the probes of `perfbench/spans.py` read: `digits` and
# `cf_from_enclosure` results and the enclosure `Enclosure.refine` refines.
PROBED_ATTRIBUTES = [
    ("DigitStream", "certified"),
    ("CFExpansion", "certified"),
    ("CFExpansion", "rational"),
    ("CFExpansion", "complete"),
    ("Enclosure", "bits"),
]


@pytest.mark.parametrize("owner, attr", PROBED_ATTRIBUTES)
def test_probed_attribute_exists(owner, attr):
    enc = realnum.enclosure(realnum.SeriesE())
    probed = {
        "DigitStream": realnum.digits(realnum.SeriesE(), 10, 5),
        "CFExpansion": contfrac.cf_from_enclosure(enc, 5),
        "Enclosure": enc,
    }
    assert isinstance(getattr(probed[owner], attr), int)
