"""The benchmark's traced run names its per-layer metrics after planefol
functions (`bench/tracing.py` `HOME`). Each must be one the tracer wraps, so
that renaming or privatising it fails here rather than in a traced run."""

import types
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tracing_module():
    # executed from its source, so that nothing is written under bench/
    module = types.ModuleType("bench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def test_every_home_function_is_wrapped():
    tracing = _tracing_module()
    wrapped = {name for name, *_ in tracing.Tracer("check")._targets()}
    assert sorted(set(tracing.HOME) - wrapped) == []
