"""The public namespace of the package: each name resolved from its home module."""

import importlib
import inspect

import pytest

import sloccinv


def home(name):
    return importlib.import_module(f"sloccinv.{sloccinv._HOME[name]}")


def test_every_public_name_is_its_home_modules_object():
    assert sorted(sloccinv._HOME) == sorted(sloccinv.__all__)
    assert len(set(sloccinv.__all__)) == len(sloccinv.__all__)
    listed = dir(sloccinv)
    for name in sloccinv.__all__:
        value = getattr(sloccinv, name)
        assert value is getattr(home(name), name), name
        if inspect.isclass(value) or inspect.isfunction(value):
            assert value.__module__ == home(name).__name__, name
        assert name in listed, name


def test_a_name_follows_its_home_module(monkeypatch):
    # nothing is kept in the package: a patch of the home module shows through
    # it and is gone once the patch is undone
    original = sloccinv.ghz
    with monkeypatch.context() as patch:
        patch.setattr(home("ghz"), "ghz", "patched")
        assert sloccinv.ghz == "patched"
    assert sloccinv.ghz is original
    assert "ghz" not in vars(sloccinv)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        sloccinv.no_such_name
    assert not hasattr(sloccinv, "no_such_name")


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from sloccinv import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(sloccinv.__all__)
    assert all(namespace[name] is getattr(sloccinv, name) for name in namespace)


def test_modules_import_as_names():
    from sloccinv import classify, criteria, oracle
    assert criteria.f_enumerate is sloccinv.f_enumerate
    assert classify.compare is sloccinv.compare
    assert oracle.ORACLE_LABELS is sloccinv.ORACLE_LABELS
