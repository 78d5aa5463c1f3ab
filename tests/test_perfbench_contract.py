"""The names the benchmark's tracer wraps must exist in simspec.

perfbench/tracing.py rebinds simspec functions and methods by name; a rename
in simspec would break every traced and untraced benchmark run, so it fails
here first.  The tracer module is loaded from its file, not installed.
"""

import importlib
import importlib.util
import pathlib

import simspec

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    tracing = _load_tracing()
    for short, names in tracing.FUNCTIONS.items():
        module = importlib.import_module("simspec." + short)
        for name in names:
            assert callable(getattr(module, name, None)), "simspec.%s.%s" % (short, name)
    for short, cls, meth in tracing.METHODS:
        klass = getattr(importlib.import_module("simspec." + short), cls, None)
        assert klass is not None, "simspec.%s.%s" % (short, cls)
        assert callable(getattr(klass, meth, None)), "simspec.%s.%s.%s" % (short, cls, meth)


def test_worker_hooks_exist():
    cache = simspec.idempotents._entry_probe_cached
    assert callable(cache.cache_info)
    assert isinstance(simspec.kernels.USE_NUMBA, bool)
    assert isinstance(simspec.fields.FieldElement, type)
