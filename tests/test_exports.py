"""Every name a module exports resolves, so a deleted function cannot leave
a stale entry in its module's __all__ behind."""

import importlib

import pytest

import mpf_lab


@pytest.mark.parametrize("name", mpf_lab.__all__)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"mpf_lab.{name}")
    assert getattr(mpf_lab, name) is module
    stale = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert stale == []
