"""The package's public names: `__all__` lists what the package has."""

import richardson


def test_every_public_name_is_an_attribute():
    assert len(set(richardson.__all__)) == len(richardson.__all__)
    missing = [name for name in richardson.__all__ if not hasattr(richardson, name)]
    assert missing == []


def test_star_import_binds_every_public_name_in_a_fresh_namespace():
    namespace: dict = {}
    exec("from richardson import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(richardson.__all__)
    assert all(namespace[name] is getattr(richardson, name) for name in richardson.__all__)
