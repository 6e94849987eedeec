"""The package's public names: each module's ``__all__`` and the package
namespace agree, and names folded into others stay gone."""

import importlib
import inspect
import pkgutil
import types
from dataclasses import fields
from pathlib import Path

import belief_opacity as bo
from conftest import run_fresh

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
    for name in exported:  # the namespace binds a name on its first access
        getattr(bo, name)
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


class TestLazyNamespace:
    """``import belief_opacity`` loads nothing; a name loads its module on first use."""

    def test_import_loads_no_submodule_numpy_or_yaml(self):
        run_fresh("""if True:
            import sys
            import belief_opacity
            loaded = {name.partition(".")[0] for name in sys.modules}
            assert not [name for name in sys.modules if name.startswith("belief_opacity.")]
            assert not loaded & {"numpy", "yaml"}, loaded & {"numpy", "yaml"}
        """)

    def test_loading_a_model_leaves_synthesis_and_simulation_unloaded(self):
        model = Path(__file__).resolve().parents[1] / "demos" / "models" / "three_state.yaml"
        run_fresh(f"""if True:
            import sys
            import belief_opacity as bo
            m = bo.load_model({str(model)!r})
            assert bo.validate_mdp(m).ok
            bo.canonical_reorder(m)
            loaded = [name for name in sys.modules if name.startswith("belief_opacity.")]
            assert loaded == ["belief_opacity.model"], loaded
        """)

    def test_every_name_is_its_module_object(self):
        run_fresh("""if True:
            import importlib
            import belief_opacity as bo
            for module, names in bo._EXPORTS.items():
                mod = importlib.import_module(f"belief_opacity.{module}")
                assert sorted(names) == sorted(mod.__all__), module
            for name in bo.__all__:
                value = getattr(bo, name)
                owner = importlib.import_module(f"belief_opacity.{bo._OWNER[name]}")
                assert value is getattr(owner, name), name
                assert vars(bo)[name] is value  # kept, so the next access is a plain read
            assert len(bo.__all__) == len(set(bo.__all__))
            assert set(bo.__all__) <= set(dir(bo))
        """)

    def test_unknown_name_raises_attribute_error(self):
        run_fresh("""if True:
            import belief_opacity as bo
            try:
                bo.nope
            except AttributeError as exc:
                assert str(exc) == "module 'belief_opacity' has no attribute 'nope'"
            else:
                raise AssertionError("bo.nope resolved")
            assert not hasattr(bo, "boxes_overlap")
        """)

    def test_star_import_and_submodules(self):
        run_fresh("""if True:
            import sys
            import belief_opacity as bo
            assert "belief_opacity.partition" not in sys.modules
            assert bo.partition is sys.modules["belief_opacity.partition"]
            assert bo.partition.Partition is bo.Partition
            namespace = {}
            exec("from belief_opacity import *", namespace)
            assert set(bo.__all__) <= set(namespace)
            assert all(namespace[name] is getattr(bo, name) for name in bo.__all__)
        """)
