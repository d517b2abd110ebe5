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
    # the battery's one entry point is run_suite; its lone tests and their map left the package
    for name in ("ks_test", "chi2_test", "autocorrelation_test", "circular_correlation_test", "normalize"):
        assert not hasattr(wsngen, name), name
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


# each record's fields, and a call that builds it; two calls give equal records
RECORDS = {
    "GeneratorParams": (("seed", "a", "c"),
                        lambda: wsngen.GeneratorParams(3, 2.80777, 1.324718)),
    "Deployment": (("points", "area", "mode", "params", "y_increment"),
                   lambda: wsngen.deploy_grid(9, 10.0, 3)),
    "TrafficMatrix": (("values", "p_min", "p_max", "distribution", "params", "rate"),
                      lambda: wsngen.traffic_exponential_transform(4, 3, 2.0, 10.0, 0.5)),
    "RadiusGraph": (("node_count", "transmission_range", "epsilon", "edges", "distances", "degrees"),
                    lambda: wsngen.build_graph(wsngen.deploy_grid(9, 10.0, 3), 4.0)),
    "TestReport": (("test_name", "statistic", "critical_value", "alpha", "verdict", "sample_size",
                    "details"),
                   lambda: wsngen.run_suite([(k + 0.5) / 20 for k in range(20)], wsngen.SuiteConfig(classes=2))[0]),
    "SuiteConfig": (("alpha_ks", "alpha_chi2", "alpha_auto", "alpha_circular", "classes"),
                    lambda: wsngen.SuiteConfig(classes=12)),
}


@pytest.mark.parametrize("name", RECORDS)
def test_records_are_immutable_value_objects(name):
    fields, build = RECORDS[name]
    record, again = build(), build()
    assert type(record) is getattr(wsngen, name)
    assert record._fields == fields
    assert record == again and record is not again
    if name == "TestReport":  # details is a dict
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(again)
    with pytest.raises(AttributeError):
        setattr(record, fields[0], None)
    assert repr(record).startswith(f"{name}({fields[0]}=")
