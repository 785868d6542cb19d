"""Fixtures shared by the test modules."""
from collections import Counter

import pytest

from mahlerlab import bounds, polycore, rootfind, search, structure


@pytest.fixture
def cyclotomic_screens(monkeypatch):
    """A Counter of the calls of the one cyclotomic screen,
    `polycore._cyclotomic_divisors`, and of `structure.cyclotomic_factor`,
    each counted through every module that binds it."""
    calls = Counter()
    for owner, name in ((polycore, "_cyclotomic_divisors"), (structure, "cyclotomic_factor")):
        real = getattr(owner, name)

        def counted(*args, _name=name, _real=real):
            calls[_name] += 1
            return _real(*args)

        for module in (bounds, polycore, rootfind, search, structure):
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counted)
    return calls
