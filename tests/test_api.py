import tripletsim


def test_every_exported_name_resolves():
    # `from tripletsim import *` fails on a name listed in __all__ that the
    # package no longer defines, so a removed export must leave __all__ too
    missing = [name for name in tripletsim.__all__ if not hasattr(tripletsim, name)]
    assert missing == []
