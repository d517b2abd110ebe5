"""The package surface: every public name resolves, lazy ones included."""

import importlib

import pytest

import wsngen

SUBMODULES = ("generator", "deployment", "traffic", "validation", "topology", "report")


@pytest.mark.parametrize("name", wsngen.__all__)
def test_every_public_name_is_its_submodule_object(name):
    value = getattr(wsngen, name)
    holders = [m for m in (importlib.import_module(f"wsngen.{s}") for s in SUBMODULES)
               if name in vars(m)]
    assert holders, name
    assert all(vars(m)[name] is value for m in holders), name
    assert vars(wsngen)[name] is value


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from wsngen import *", namespace)
    assert set(wsngen.__all__) <= set(namespace)
    assert namespace["run_suite"] is wsngen.validation.run_suite


def test_unknown_attribute_raises_the_standard_error():
    with pytest.raises(AttributeError, match=r"^module 'wsngen' has no attribute 'nope'$"):
        wsngen.nope
    assert not hasattr(wsngen, "_nope")


def test_lazy_names_are_listed_and_resolve_after_a_fresh_import(fresh_python):
    # in this process the submodules were imported by the suite already
    script = (
        "import sys, wsngen\n"
        "assert [m for m in sys.modules if m.startswith('wsngen.')] == []\n"
        "assert {*wsngen.__all__, 'validation', 'topology', 'report'} <= set(dir(wsngen))\n"
        "assert wsngen.deploy_grid is sys.modules['wsngen.deployment'].deploy_grid\n"
        "assert 'numpy' not in sys.modules\n"
        "assert wsngen.build_graph is sys.modules['wsngen.topology'].build_graph\n"
        "for name in ('validation', 'topology', 'report'):\n"
        "    assert getattr(wsngen, name) is sys.modules['wsngen.' + name], name\n"
        "assert 'numpy' not in sys.modules\n"
    )
    fresh_python(script)
