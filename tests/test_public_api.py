"""The package namespace: every exported name resolves, including the
solve and build functions that are loaded on first use."""

import pytest

import ambuplan
import ambuplan.cli

ENGINE_NAMES = {
    "build_allocation_program": "allocation",
    "solve_allocation": "allocation",
    "build_transfer_program": "transfer",
    "solve_transfer": "transfer",
}


def test_every_exported_name_resolves_and_is_listed():
    listed = dir(ambuplan)
    for name in ambuplan.__all__:
        assert getattr(ambuplan, name) is not None, name
        assert name in listed, name


@pytest.mark.parametrize("name, module", sorted(ENGINE_NAMES.items()))
def test_engine_names_are_the_model_modules_functions(name, module):
    assert set(ENGINE_NAMES) <= set(ambuplan.__all__)
    assert getattr(ambuplan, name) is getattr(getattr(ambuplan, module), name)


def test_cli_serves_the_package_solvers():
    assert ambuplan.cli.solve_allocation is ambuplan.solve_allocation
    assert ambuplan.cli.solve_transfer is ambuplan.solve_transfer


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from ambuplan import *", namespace)
    for name in ambuplan.__all__:
        assert namespace[name] is getattr(ambuplan, name), name


@pytest.mark.parametrize("module", [ambuplan, ambuplan.cli])
def test_unknown_attribute_raises_attribute_error(module):
    with pytest.raises(AttributeError, match="no_such_name"):
        module.no_such_name
    assert not hasattr(module, "no_such_name")
