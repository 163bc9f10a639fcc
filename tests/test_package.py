import godeaux_lines


def test_every_export_resolves():
    # `from godeaux_lines import *` fails on a name in __all__ that is gone
    missing = [name for name in godeaux_lines.__all__ if not hasattr(godeaux_lines, name)]
    assert missing == []
