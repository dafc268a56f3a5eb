"""The names the benchmark tracer wraps must exist where it looks for them.

``bench/tracer.py`` resolves every dotted name in ``TARGETS`` with
``vars(owner)[attr]`` when it installs itself; a refactor that drops or
moves one of them fails here instead of at trace time.
"""
import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracer = load_tracer()
    assert tracer.TARGETS
    for dotted in tracer.TARGETS:
        mod_name, *path = dotted.split(".")
        owner = importlib.import_module(f"isocayley.{mod_name}")
        for attr in path[:-1]:
            owner = getattr(owner, attr)
        assert path[-1] in vars(owner), f"{dotted} is gone"
        assert callable(vars(owner)[path[-1]]) or isinstance(vars(owner)[path[-1]], property)
