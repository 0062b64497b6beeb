"""Span arithmetic on hand-built span trees, and one traced request."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spans
from spans import Span


def _tree():
    # root [0, 10] with children a [1, 4] and b [3, 6] (overlapping, as
    # spans from another process could be) and c [8, 12] (overhanging);
    # a has a child a1 [2, 3].
    return [
        Span(1, 0, "protocol.run", 0.0, 10.0),
        Span(2, 1, "protocol.cycle", 1.0, 4.0),
        Span(3, 1, "twomode.build", 3.0, 6.0),
        Span(4, 1, "twomode.evolve", 8.0, 12.0),
        Span(5, 2, "protocol.kernel", 2.0, 3.0),
    ]


def test_self_time_subtracts_the_union_of_children():
    own = spans.self_times(_tree())
    # Children cover [1, 6] and [8, 10] inside the root: 7 of its 10 s.
    assert own[1] == pytest.approx(3.0)
    assert own[2] == pytest.approx(2.0)
    assert own[3] == pytest.approx(3.0)
    assert own[4] == pytest.approx(4.0)
    assert own[5] == pytest.approx(1.0)


def test_layer_times_partition_a_nested_tree():
    tree = [
        Span(1, 0, "cli.main", 0.0, 10.0),
        Span(2, 1, "gpe.solve", 1.0, 3.0, {"iterations": 300}),
        Span(3, 1, "protocol.run", 4.0, 9.0),
        Span(4, 3, "protocol.cycle", 4.5, 8.5, {"mass_drift": 2e-15}),
        Span(5, 4, "protocol.kernel", 5.0, 8.0),
        Span(6, 5, "twomode.build", 5.0, 5.5),
        Span(7, 5, "twomode.evolve", 5.5, 7.5, {"dim": 11, "support": 5}),
        Span(8, 7, "twomode.eig", 5.5, 7.0, {"dim": 11, "computed": True}),
    ]
    m = spans.finalize(spans.tally(tree))
    assert m["cli.self_s"] == pytest.approx(10.0 - 2.0 - 5.0)
    assert m["gpe.solve_s"] == pytest.approx(2.0)
    assert m["gpe.iterations"] == 300
    assert m["protocol.cycle_s"] == pytest.approx(4.0 - 3.0)
    assert m["twomode.build_s"] == pytest.approx(0.5)
    assert m["twomode.evolve_s"] == pytest.approx(0.5)
    assert m["twomode.eig_s"] == pytest.approx(1.5)
    # Outermost twomode spans under a protocol span: build + evolve.
    assert m["protocol.kernel_s"] == pytest.approx(2.5)
    assert m["protocol.kernels"] == 1
    assert m["protocol.cycles"] == 1
    assert m["protocol.mass_drift"] == pytest.approx(2e-15)
    assert m["twomode.eig_n3"] == 11**3
    assert m["twomode.support_frac"] == pytest.approx(5 / 11)


def test_tallies_add_across_processes_and_errors_are_counted():
    a = spans.tally([Span(1, 0, "gpe.solve", 0.0, 1.0, {"error": "convergence"})])
    b = spans.tally([Span(1, 0, "gpe.solve", 0.0, 2.0, {"iterations": 10})])
    total = spans.combine([a, b])
    m = spans.finalize(total)
    assert m["gpe.calls"] == 2
    assert m["gpe.solve_s"] == pytest.approx(3.0)
    assert m["gpe.errors"] == 1
    assert spans.error_breakdown(total) == {"gpe": {"convergence": 1}}


def test_recorder_nests_spans_by_open_order():
    ticks = iter(range(100))
    rec = spans.Recorder(clock=lambda: float(next(ticks)))
    outer = rec.start("protocol.run")
    inner = rec.start("protocol.cycle")
    rec.finish(inner)
    rec.finish(outer)
    taken = rec.take()
    assert [(s.id, s.parent) for s in taken] == [(1, 0), (2, 1)]
    assert (outer.start, outer.end, inner.start, inner.end) == (0.0, 3.0, 1.0, 2.0)
    assert rec.take() == []
    with pytest.raises(RuntimeError):
        a = rec.start("a")
        rec.start("b")
        rec.finish(a)


def test_traced_cli_request_records_the_layers(tmp_path):
    # In a child process, so the wrappers never touch this test session.
    bench = Path(spans.__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=str(bench.parent / "src"))
    spans_path = tmp_path / "spans.json"
    argv = ["dynamics", "--nbar", "100", "--n0", "100", "--grid-points", "800"]
    proc = subprocess.run(
        [sys.executable, str(bench / "traced_cli.py"), str(spans_path), *argv,
         "--output", str(tmp_path / "out.csv")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    data = json.loads(spans_path.read_text())
    assert data["missing"] == []
    recorded = [Span(**s) for s in data["spans"]]
    root = recorded[0]
    assert root.name == "cli.main" and root.parent == 0
    assert all(s.parent != 0 for s in recorded[1:])
    m = spans.finalize(spans.tally(recorded))
    assert m["cli.calls"] == 1 and m["cli.output_bytes"] > 0
    assert m["gpe.calls"] == 1 and m["gpe.iterations"] > 0
    assert m["modes.calls"] == 2
    assert m["twomode.trace_calls"] == 1 and m["twomode.trace_samples"] == 401
    assert m["twomode.eig_calls"] == 1 and m["twomode.eig_n3"] == 101**3
    assert 0 < m["twomode.eig_useful_frac"] < 1
    assert m["cli.self_s"] > 0
