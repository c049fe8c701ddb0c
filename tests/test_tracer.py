"""perfbench's tracer patches alrank attributes by name: every one must exist,
be replaced while tracing and be put back by `restore`."""

import importlib.util
from pathlib import Path

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_instrument_patches_and_restore_puts_back_every_attribute():
    tracer = load_tracer_module().Tracer("t")
    try:
        tracer.instrument()
        patched = list(tracer._patched)
        assert all(getattr(owner, attr) is not original for owner, attr, original in patched)
    finally:
        tracer.restore()
    assert len(patched) == 26
    assert len({(id(owner), attr) for owner, attr, _ in patched}) == len(patched)
    assert all(getattr(owner, attr) is original for owner, attr, original in patched)
    assert not tracer._patched
