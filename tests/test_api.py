"""The package root re-exports each layer module's `__all__`, and nothing
else but `__version__`."""

import importlib

import roughweyl

LAYERS = ("mesh", "fields", "assembly", "spectral", "varprin", "weyl", "cli")


def layer_modules():
    return [importlib.import_module("roughweyl." + name) for name in LAYERS]


def test_root_all_is_the_layers_all_in_import_order():
    expected = ["__version__"]
    for mod in layer_modules():
        expected += mod.__all__
    assert roughweyl.__all__ == expected


def test_no_public_name_declared_twice():
    assert len(set(roughweyl.__all__)) == len(roughweyl.__all__)


def test_each_root_name_is_its_modules_object():
    for mod in layer_modules():
        for name in mod.__all__:
            assert getattr(roughweyl, name) is getattr(mod, name), (
                mod.__name__, name)


def test_every_exception_a_layer_defines_is_public():
    # callers catch these by name, so each must be importable from the root
    for mod in layer_modules():
        for name, value in vars(mod).items():
            if (isinstance(value, type) and issubclass(value, Exception)
                    and value.__module__ == mod.__name__):
                assert name in mod.__all__, (mod.__name__, name)
