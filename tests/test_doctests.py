"""The `>>>` examples in the package's docstrings run and hold."""

import doctest
import importlib
import pkgutil

import richardson


def test_docstring_examples_hold():
    attempted = 0
    for info in pkgutil.iter_modules(richardson.__path__):
        if info.name == "__main__":  # runs the CLI and calls sys.exit on import
            continue
        module = importlib.import_module(f"richardson.{info.name}")
        failed, tried = doctest.testmod(module)
        assert failed == 0, f"{failed} doctest example(s) failed in {module.__name__}"
        attempted += tried
    assert attempted >= 1
