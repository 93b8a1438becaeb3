"""Every function the traced benchmark run wraps must still exist.

``bench/tracing.py`` replaces falab attributes by name; a renamed or
deleted target would only fail when the traced run starts.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("target", load_tracing().TARGETS,
                         ids=lambda t: f"{t[0]}.{t[1]}")
def test_target_resolves(target):
    module_name, attr, _, _ = target
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        pytest.skip(f"{module_name} does not import")
    if "." in attr:  # a method, wrapped on the class that defines it
        cls_name, attr = attr.split(".")
        owner = vars(getattr(owner, cls_name))
        assert callable(owner[attr])
    else:
        assert callable(getattr(owner, attr))
