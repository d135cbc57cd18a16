"""The benchmark's span recorder binds the diowords entry points by name.

`perfbench/spans.py` lists them in ENTRY_POINTS, and its probes read a
few attributes off what they return.  A rename or deletion in `src/`
would break the traced benchmark run, whose own recorder test is slow
and lives outside `tests/`, so this checks the names quickly.  So is
the rule of the traced run that a workload makes no call into the
layers it bypasses (`perfbench/run.py` BYPASSED): the warm-up jobs, one
of each family, run here under the recorder.
"""

import contextlib
import importlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

from diowords import cli, contfrac, realnum

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def _entry_points():
    return [(layer, name) for layer, names in _spans().ENTRY_POINTS.items() for name in names]


def _perfbench(name: str):
    """perfbench/<name>.py, imported with perfbench/ on the path for its own imports."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(PERFBENCH))


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


@pytest.mark.parametrize("workload", sorted(_perfbench("run").BYPASSED))
def test_warmup_jobs_bypass_their_layers(workload):
    bypassed = _perfbench("run").BYPASSED[workload]
    rec = _spans().Recorder()
    codes = []
    try:
        rec.install()
        for job in _perfbench("workloads").warmups(workload):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                codes.append(cli.main(list(job.argv)))
    finally:
        rec.uninstall()
    calls = rec.calls()
    assert codes == [0] * len(codes) and calls["cli"] >= len(codes)
    assert {layer: calls[layer] for layer in bypassed} == dict.fromkeys(bypassed, 0)
