"""Every name a module exports through ``__all__`` exists, so ``import *`` works."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import hef_lab

MODULES = ["hef_lab", *(info.name for info in pkgutil.walk_packages(hef_lab.__path__, "hef_lab."))]


def test_the_package_and_its_models_are_walked() -> None:
    assert {"hef_lab", "hef_lab.models", "hef_lab.protocol", "hef_lab.models.linear"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name) -> None:
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), f"{name} exports a name twice"
    assert [n for n in exported if not hasattr(module, n)] == []
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= set(namespace)
