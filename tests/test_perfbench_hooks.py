"""The benchmark's tracer wraps callees on the name where the caller looks
them up.  If a module stops importing a traced callee by name, or calls it
through another name, the tracer would record nothing for it; these checks
catch that without running the benchmark.  A traced function that its own
module defines is looked up there too, so that module must call it by its
global name."""

import dis
import sys
import types
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracing  # noqa: E402


def _global_names(module) -> set[str]:
    """Names that code defined in ``module`` (its functions, its classes'
    methods and the code they nest) loads as globals (``LOAD_GLOBAL``)."""
    stack = []
    for obj in vars(module).values():
        members = vars(obj).values() if isinstance(obj, type) else (obj,)
        for member in members:
            member = getattr(member, "__func__", member)        # staticmethod, classmethod
            member = getattr(member, "fget", None) or member    # property
            if isinstance(member, types.FunctionType) and member.__module__ == module.__name__:
                stack.append(member.__code__)
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


# Traced functions that nothing calls by their global name, so their spans
# and counts read 0: qn-broyden applies its curvature updates inline and no
# longer calls the dense ``broyden_update``.
DEAD_HOOKS = {"aucmax.solvers.broyden_update"}


def test_owned_targets_are_called_through_the_module_global():
    uncalled = {f"{owner.__name__}.{name}" for _, owner, name, _ in tracing.WRAPS
                if isinstance(owner, types.ModuleType) and not _imported(owner, name)
                and name not in _global_names(owner)}
    assert uncalled == DEAD_HOOKS
