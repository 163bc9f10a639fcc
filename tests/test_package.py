import importlib
import importlib.util
import pathlib

import godeaux_lines


def test_every_export_resolves():
    # `from godeaux_lines import *` fails on a name in __all__ that is gone
    missing = [name for name in godeaux_lines.__all__ if not hasattr(godeaux_lines, name)]
    assert missing == []


def test_benchmark_tracer_targets_resolve():
    # perfbench/tracing.py wraps the library's functions by name; a renamed
    # or deleted target would only show in a traced benchmark run
    path = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = [(module, attr) for _, module, attr in tracing.SPANNED]
    targets += [t for group in tracing.COUNTED.values() for t in group]
    missing = []
    for module, attr in targets:
        importlib.import_module(f"{tracing.PACKAGE}.{module}")
        try:
            _, _, raw = tracing._resolve(module, attr)
        except AttributeError:
            missing.append(f"{module}.{attr}")
            continue
        assert callable(getattr(raw, "__func__", raw)), f"{module}.{attr}"
    assert missing == []
