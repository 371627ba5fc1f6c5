"""Every public name the benchmark's tracer wraps still exists.

``perfbench/tracing.py`` looks each traced name up with
``vars(owner).get(method)`` and, when it is missing, reports the metrics
that depend on it as absent while the run still succeeds.  These tests make
a moved or renamed name fail here instead.  No wrapper is installed.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_traced():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


TRACED = load_traced()


@pytest.mark.parametrize("name, module_name, attr", TRACED, ids=[entry[0] for entry in TRACED])
def test_traced_name_resolves(name, module_name, attr):
    module = importlib.import_module(f"nilquiver.{module_name}")
    owner_name, _, method = attr.rpartition(".")
    owner = getattr(module, owner_name, None) if owner_name else module
    assert owner is not None, f"{name}: nilquiver.{module_name} has no {owner_name}"
    assert vars(owner).get(method) is not None, f"{name}: {attr} is not defined on nilquiver.{module_name}"
