"""The package holds only its submodules: each public name lives in its
own module, and ``uwq.<m>`` is always the module ``m``."""

import importlib
import types

import pytest

import uwq

MODULES = ["cli", "constants", "errors", "expansion", "gaussconv", "grid", "gridtext",
           "quant", "stft", "suites", "weights"]


@pytest.mark.parametrize("name", MODULES)
def test_submodule_is_the_package_attribute(name):
    module = importlib.import_module(f"uwq.{name}")
    assert isinstance(module, types.ModuleType)
    assert getattr(uwq, name) is module


def test_import_as_binds_the_module():
    import uwq.stft as s

    assert isinstance(s, types.ModuleType)
    assert callable(s.stft)


def test_package_namespace_is_only_submodules():
    for name in MODULES:
        importlib.import_module(f"uwq.{name}")
    public = {n for n in vars(uwq) if not n.startswith("_")}
    assert public <= set(MODULES)
