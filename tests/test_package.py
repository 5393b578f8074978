"""Package-wide invariants of the tenserecon modules."""

import importlib
import pkgutil

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
