"""Library-quality gates: public API shape and documentation coverage."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.analysis",
    "repro.core",
    "repro.evasion",
    "repro.match",
    "repro.metrics",
    "repro.packet",
    "repro.pcap",
    "repro.signatures",
    "repro.streams",
    "repro.theory",
    "repro.traffic",
]


def public_members(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    for name in names:
        yield name, getattr(module, name)


@pytest.mark.parametrize("package", PACKAGES)
def test_package_imports_and_documents_itself(package):
    module = importlib.import_module(package)
    assert module.__doc__, f"{package} lacks a module docstring"


@pytest.mark.parametrize("package", PACKAGES)
def test_all_exports_resolve(package):
    module = importlib.import_module(package)
    for name in getattr(module, "__all__", []):
        assert hasattr(module, name), f"{package}.__all__ lists missing {name}"


@pytest.mark.parametrize("package", PACKAGES)
def test_public_classes_and_functions_have_docstrings(package):
    module = importlib.import_module(package)
    undocumented = []
    for name, obj in public_members(module):
        if inspect.isclass(obj) or inspect.isfunction(obj):
            if getattr(obj, "__module__", "").startswith("repro") and not obj.__doc__:
                undocumented.append(name)
    assert not undocumented, f"{package}: undocumented public items {undocumented}"


def test_every_submodule_has_docstring():
    missing = []
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.name.endswith("__main__"):
            continue  # importing it runs the CLI
        module = importlib.import_module(info.name)
        if not module.__doc__:
            missing.append(info.name)
    assert not missing, f"modules without docstrings: {missing}"


def test_public_methods_of_core_classes_documented():
    from repro.core import ConventionalIPS, FastPath, SlowPath, SplitDetectIPS
    from repro.streams import ActiveNormalizer, StreamNormalizer, TcpReassembler

    undocumented = []
    for cls in (
        SplitDetectIPS, FastPath, SlowPath, ConventionalIPS,
        TcpReassembler, StreamNormalizer, ActiveNormalizer,
    ):
        for name, member in vars(cls).items():
            if name.startswith("_"):
                continue
            func = member.fget if isinstance(member, property) else member
            if callable(func) and not getattr(func, "__doc__", None):
                undocumented.append(f"{cls.__name__}.{name}")
    assert not undocumented, undocumented


def test_version_is_exposed():
    assert repro.__version__ == "1.0.0"


def test_fnv1a_64_has_one_home_per_key():
    """``fnv1a_64`` is called in exactly three modules: the port-less
    placement key (shards, trace ids, shed slots) in ``packet/batch.py``,
    and the directional state key in the flow table and the sketch.  A
    fourth caller would be a second serialization of a key one of them
    already owns -- and one more site a per-run hash key must reach."""
    src = Path(repro.__file__).resolve().parent
    callers = set()
    for path in src.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "fnv1a_64":
                    callers.add(path.relative_to(src).as_posix())
    assert callers == {"packet/batch.py", "core/flowtable.py", "core/sketch.py"}
