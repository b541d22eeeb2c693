"""The per-layer tracer in perfbench/tracing.py installs each wrapper
through `owner.__dict__[name]`, so every name it traces has to be defined on
its owner itself: a method moved into a base class, or a function renamed,
would raise KeyError only when a traced run starts."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _traced_names() -> list[tuple[str, str]]:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [(module, attr) for module, attr, _, _ in tracing.TARGETS]


@pytest.mark.parametrize("module,attr", _traced_names())
def test_traced_name_is_defined_on_its_owner(module, attr):
    owner = importlib.import_module(f"nagaotree.{module}")
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    assert name in owner.__dict__, f"nagaotree.{module}.{attr}"
