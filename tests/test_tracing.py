"""The benchmark tracer still finds every library attribute it wraps."""

from pathlib import Path

import treepack.graphcore

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_installs_and_restores(monkeypatch):
    # installed() raises KeyError for a wrapped name the library no longer
    # defines, so renaming or moving a traced function fails here.
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing
    before = treepack.graphcore.min_cut
    with tracing.installed(tracing.Tracer()):
        assert treepack.graphcore.min_cut is not before
    assert treepack.graphcore.min_cut is before
