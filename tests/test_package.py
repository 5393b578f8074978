"""Package-wide invariants of the tenserecon modules."""

import importlib
import pkgutil
import re
from pathlib import Path

import tenserecon


def test_no_module_attribute_is_a_wrapper():
    # the benchmark's self-test takes any module attribute with a __wrapped__
    # for a span wrapper it failed to remove; numpy's dispatch-decorated
    # functions carry one, so they are called through their numpy module
    modules = [tenserecon] + [importlib.import_module(f"tenserecon.{info.name}")
                              for info in pkgutil.iter_modules(tenserecon.__path__)]
    wrapped = [f"{mod.__name__}.{k}" for mod in modules for k, v in vars(mod).items()
               if hasattr(v, "__wrapped__")]
    assert wrapped == []


def test_readme_python_blocks_run(tmp_path, monkeypatch):
    # the README's library examples, in order and in one namespace as a reader
    # runs them, in an empty directory for the files they write
    monkeypatch.chdir(tmp_path)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, flags=re.M | re.S)
    assert len(blocks) >= 2
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["result"].converged
