"""The benchmark's tracer finds every library attribute it patches.

perfbench/tracing.py wraps boxflow functions by module attribute name and
prints a warning, then reads 0 for that layer, when one is missing.  A
renamed function would otherwise silently zero a bench layer.
"""

from pathlib import Path

import pytest

from conftest import FIG1_DEMAND, cycle_graph

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    return tracing


def test_tracer_patches_every_layer(tracing, capsys):
    from boxflow import solvers

    original = solvers._extract_dual
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        assert capsys.readouterr().err == ""
        tracer.phase = "solve"
        rep = solvers.solve_transshipment(cycle_graph(8), FIG1_DEMAND, 0.1, seed=0)
    finally:
        tracer.restore()
    solve = tracer.counts["solve"]
    assert solve["solvers.dual_calls"] == 1
    assert solve["boxsimplex_calls"] == rep.solve_calls
    assert solve["boxsimplex.iterations"] == rep.iterations_total
    assert solvers._extract_dual is original
