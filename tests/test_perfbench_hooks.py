"""The benchmark's tracer wraps callees on the name where the caller looks
them up.  If a module stops importing a traced callee by name, or calls it
through another name, the tracer would record nothing for it; these checks
catch that without running the benchmark."""

import dis
import sys
import types
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracing  # noqa: E402


def _global_names(module) -> set[str]:
    """Names that code defined in ``module`` loads as globals (``LOAD_GLOBAL``)."""
    stack = [obj.__code__ for obj in vars(module).values()
             if isinstance(obj, types.FunctionType) and obj.__module__ == module.__name__]
    names = set()
    while stack:
        code = stack.pop()
        names.update(ins.argval for ins in dis.get_instructions(code)
                     if ins.opname == "LOAD_GLOBAL")
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return names


def _imported(owner, name):
    """True when ``owner`` is a module that imports ``name`` from another module."""
    target = owner.__dict__[name]
    return isinstance(owner, types.ModuleType) and target.__module__ != owner.__name__


def test_every_traced_target_is_an_attribute_of_its_owner():
    for key, owner, name, _ in tracing.WRAPS:
        assert name in owner.__dict__, f"{key}: {owner.__name__} has no {name!r}"
        target = owner.__dict__[name]
        assert callable(target), key
        if _imported(owner, name):              # the defining module's own function
            assert getattr(sys.modules[target.__module__], name) is target, key


def test_imported_targets_are_called_through_the_module_global():
    for key, owner, name, _ in tracing.WRAPS:
        if _imported(owner, name):
            assert name in _global_names(owner), (
                f"{key}: nothing in {owner.__name__} calls {name!r} by its global name")
