"""Public API that only tests use stays out of `src/`.

Every public module-level function of `ggkdv`, and every public method or
property of a public class, needs a reason to be there: a use in `src/`, a
span in the `per_layer` metrics of `BENCHMARK.json` (the benchmark's tracer
wraps it by name), or a use in the README's Python API block. A function
that only tests call is an oracle, and lives in `tests/`
(`spectral_reference.derivative`, say).
"""
import ast
import functools
import importlib
import inspect
import json
import pkgutil
import re

import ggkdv

from conftest import ROOT

SRC = ROOT / "src" / "ggkdv"


def _public_functions() -> list:
    """`module.name` of each public function a `ggkdv` module defines, a
    cached one included."""
    names = []
    for info in pkgutil.iter_modules(ggkdv.__path__):
        module = importlib.import_module(f"ggkdv.{info.name}")
        for name, obj in vars(module).items():
            if (not name.startswith("_")
                    and inspect.isfunction(inspect.unwrap(obj))
                    and obj.__module__ == module.__name__):
                names.append(f"{info.name}.{name}")
    return sorted(names)


def _public_members() -> list:
    """`module.Class.name` of each public method or property that a public
    class of a `ggkdv` module defines."""
    kinds = (property, functools.cached_property, classmethod, staticmethod)
    names = []
    for info in pkgutil.iter_modules(ggkdv.__path__):
        module = importlib.import_module(f"ggkdv.{info.name}")
        for class_name, cls in vars(module).items():
            if (class_name.startswith("_") or not inspect.isclass(cls)
                    or cls.__module__ != module.__name__):
                continue
            names += [f"{info.name}.{class_name}.{name}"
                      for name, obj in vars(cls).items()
                      if not name.startswith("_")
                      and (inspect.isfunction(obj) or isinstance(obj, kinds))]
    return sorted(names)


def _used_in_src() -> set:
    """Every name that `src/` loads, bare or as an attribute; an import
    alone is no use."""
    used = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def _traced_spans() -> set:
    """`module.function` and `module.Class.method` of each span; a metric
    name is the span's name, then the metric's."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    return {".".join(metric["name"].split(".")[:length])
            for metric in bench["per_layer"] for length in (2, 3)}


def _readme_api_names() -> set:
    readme = (ROOT / "README.md").read_text("utf-8")
    section = readme.split("## Python API", 1)[1].split("\n## ", 1)[0]
    block = section.split("```python", 1)[1].split("```", 1)[0]
    return set(re.findall(r"\w+", block))


def test_every_public_function_has_a_use_outside_the_tests():
    functions = _public_functions()
    assert "spectral.make_grid" in functions  # the scan sees the package
    used, spans, readme = _used_in_src(), _traced_spans(), _readme_api_names()
    unused = [name for name in functions
              if name.split(".")[1] not in used | readme and name not in spans]
    assert unused == []


def test_every_public_method_has_a_use_outside_the_tests():
    members = _public_members()
    assert "spectral.SpectralField.band" in members  # the scan sees methods
    assert "spectral.GridSpec.n_coeffs" in members  # and properties
    used, spans, readme = _used_in_src(), _traced_spans(), _readme_api_names()
    unused = [name for name in members
              if name.split(".")[2] not in used | readme and name not in spans]
    assert unused == []
