"""The bench harness's trace mode (`bench/run.py --trace 1`) wraps package
functions by name from outside; this keeps a rename or deletion of a traced
function from breaking it unnoticed."""

import importlib.util
import pathlib
import sys

import relators
import relators.cli  # noqa: F401  (install looks modules up in sys.modules)

TRACER_PATH = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ untouched
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls(monkeypatch):
    tracer_mod = _load_tracer(monkeypatch)
    originals = {
        (mod, name): getattr(sys.modules[f"relators.{mod}"], name)
        for mod, name, *_ in tracer_mod.SPANS + tracer_mod.COUNTERS + tracer_mod.GENERATORS
    }
    tracer = tracer_mod.Tracer()
    undo = tracer_mod.install(tracer)
    try:
        assert undo
        assert relators.count_cyclically_reduced(2, 3) == 28
        assert sum(1 for _ in relators.enumerate_cyclically_reduced(2, 3)) == 28
    finally:
        tracer_mod.uninstall(undo)
    phase = tracer.take()
    assert [span[0] for span in phase["spans"]] == ["words.count"]
    assert phase["counters"] == {"words.enumerate.words": 28}
    for (mod, name), fn in originals.items():
        assert getattr(sys.modules[f"relators.{mod}"], name) is fn
