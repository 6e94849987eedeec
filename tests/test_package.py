"""The package's public names: each module's ``__all__`` and the package
namespace agree, and names folded into others stay gone."""

import importlib
import inspect
import pkgutil
import types
from dataclasses import fields
from pathlib import Path

import belief_opacity as bo

MODULES = [
    importlib.import_module(f"belief_opacity.{info.name}")
    for info in pkgutil.iter_modules(bo.__path__)
    if info.name != "__main__"
]


def test_every_module_export_is_a_package_attribute():
    missing = [(mod.__name__, name) for mod in MODULES for name in getattr(mod, "__all__", ())
               if getattr(bo, name, None) is not getattr(mod, name)]
    assert missing == []


def test_every_public_package_attribute_comes_from_an_export_list():
    exported = {name for mod in MODULES for name in getattr(mod, "__all__", ())}
    public = {name for name, value in vars(bo).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == exported


def test_removed_names_stay_removed():
    assert not any(hasattr(bo, name) for name in ("boxes_overlap", "classify_cell"))
    assert not hasattr(bo.partition, "classify_cell")
    assert not any(hasattr(bo.Nfa, name) for name in ("accepts", "sorted_states", "_targets"))
    assert not hasattr(bo.Mdp, "action_index")
    assert "action" not in {f.name for f in fields(bo.AffineDecomposition)}
    assert list(inspect.signature(bo.refine_initial).parameters) == ["p", "x0", "m"]
    assert "tol" not in inspect.signature(bo.validate_mdp).parameters
    assert "seed" not in inspect.signature(bo.verify_edit_requirements).parameters
    # fields that repeated another are derived, read-only attributes
    for cls, name in ((bo.Partition, "dim"), (bo.AbstractionResult, "initial_cell"),
                      (bo.EditAutomaton, "initial")):
        assert name not in {f.name for f in fields(cls)}
        assert isinstance(getattr(cls, name), property)


def test_runtime_dependencies_leave_out_scipy():
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    assert "scipy" not in pyproject.lower()
