"""The docstring examples of every maninforge module, run as part of the suite."""
from __future__ import annotations

import doctest
import importlib
import pkgutil

import maninforge


def test_docstring_examples_pass():
    attempted = 0
    for info in pkgutil.iter_modules(maninforge.__path__):
        module = importlib.import_module(f"maninforge.{info.name}")
        result = doctest.testmod(module, verbose=False)
        assert result.failed == 0, info.name
        attempted += result.attempted
    assert attempted > 0
