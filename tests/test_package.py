"""The package surface: the names of ``heun_spectra.__all__``, which load
their module on first access, and the integer-input rule of ``errors``."""

import sys

import numpy as np
import pytest

import heun_spectra
from heun_spectra.errors import ParameterError, require_integer


@pytest.mark.parametrize("name", heun_spectra.__all__)
def test_export_is_the_object_its_module_defines(name):
    value = getattr(heun_spectra, name)
    assert getattr(sys.modules[value.__module__], name) is value
    assert name in dir(heun_spectra)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'solve_blocks'"):
        heun_spectra.solve_blocks


def test_star_import_binds_every_export():
    namespace = {}
    exec("from heun_spectra import *", namespace)
    assert {name: namespace[name] for name in heun_spectra.__all__} == {
        name: getattr(heun_spectra, name) for name in heun_spectra.__all__}


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64,
                                   np.uint8, np.uint16, np.uint32, np.uint64])
def test_require_integer_accepts_numpy_integers(dtype):
    value = require_integer(dtype(7), "message")
    assert value == 7 and type(value) is int


@pytest.mark.parametrize("value", [True, np.bool_(True), 2.0, "1"],
                         ids=["bool", "numpy-bool", "float", "str"])
def test_require_integer_rejects_other_values(value):
    with pytest.raises(ParameterError, match="^message$"):
        require_integer(value, "message")
