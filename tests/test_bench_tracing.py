"""The benchmark's traced run rebinds these names; each must still exist.

`bench/tracing.py` looks every name in CALL_SITES up with getattr on its
module and every CLASS_SITES entry in its class's __dict__, so a refactor
that drops or moves one breaks `bench/run.py --trace 1`. This only reads
`bench/`.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


@pytest.mark.parametrize(
    "module_name, name",
    [(m, n) for m, names in tracing.CALL_SITES.items() for n in names],
)
def test_call_site_resolves(module_name, name):
    assert callable(getattr(importlib.import_module(module_name), name))


@pytest.mark.parametrize("module_name, class_name, name", tracing.CLASS_SITES)
def test_class_site_resolves(module_name, class_name, name):
    cls = getattr(importlib.import_module(module_name), class_name)
    assert isinstance(cls.__dict__[name], classmethod)
