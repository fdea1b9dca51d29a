"""Fixtures shared by the wire codec tests."""

import dataclasses
from types import SimpleNamespace

import pytest

from repro.net import wire


@pytest.fixture()
def fresh_emitters(monkeypatch):
    """Install an emitter table holding only the nine fixed rows (the real
    one is process-wide) and record every ``dataclasses.fields`` call.

    Returns ``fixed`` (the fixed rows' types) and ``planned`` (the class
    of each ``dataclasses.fields`` call, in order)."""
    fixed = {
        cls: wire._EMITTERS[cls]
        for cls in (type(None), bool, int, float, str, bytes, tuple, list, dict)
    }
    monkeypatch.setattr(wire, "_EMITTERS", wire._Emitters(fixed))
    planned = []
    fields = dataclasses.fields
    monkeypatch.setattr(
        dataclasses, "fields", lambda cls: planned.append(cls) or fields(cls)
    )
    return SimpleNamespace(fixed=set(fixed), planned=planned)
