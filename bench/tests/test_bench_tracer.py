"""Span recording and the self-time arithmetic of the traced run."""
import json
import sys
import types

import pytest

import tracer
from tracer import Point, Tracer, check_ops, self_times


def span(id, op, parent, start, end, name="x"):
    return [id, op, parent, name, start, end, None, None]


def test_self_time_subtracts_the_time_children_cover():
    # op 0: root 0..10 with children 1..4 (grandchild 2..3) and 5..9
    spans = [
        span(0, 0, None, 0.0, 10.0),
        span(1, 0, 0, 1.0, 4.0),
        span(2, 0, 1, 2.0, 3.0),
        span(3, 0, 0, 5.0, 9.0),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])
    assert check_ops(spans, self_times(spans)) == []


def test_overlapping_children_are_covered_once():
    spans = [span(0, 0, None, 0.0, 10.0), span(1, 0, 0, 1.0, 6.0), span(2, 0, 0, 4.0, 8.0)]
    assert self_times(spans)[0] == pytest.approx(3.0)


def test_check_ops_reports_an_op_whose_self_times_do_not_add_up():
    spans = [span(0, 0, None, 0.0, 10.0), span(1, 0, 0, 1.0, 4.0)]
    assert check_ops(spans, [7.0, 2.0]) != []


@pytest.fixture
def fake_module(monkeypatch):
    module = types.ModuleType("fake_layer")

    def inner(x):
        return x * 2

    def outer(x):
        return module.inner(x) + 1

    def fail():
        raise ValueError("bad")

    module.inner, module.outer, module.fail = inner, outer, fail
    monkeypatch.setitem(sys.modules, "fake_layer", module)
    return module


def test_wrapped_calls_nest_under_their_op_and_unwrap_cleanly(fake_module):
    original = fake_module.inner
    t = Tracer()
    t.install([
        Point("fake_layer", "outer", "layer.outer"),
        Point("fake_layer", "inner", "layer.inner", amount=lambda a, r: a[0]),
        Point("fake_layer", "fail", "layer.fail"),
        Point("fake_layer", "removed", "layer.removed"),
        Point("no_such_module", "f", "layer.f"),
    ])
    with t.op("op"):
        assert fake_module.outer(3) == 7
        with pytest.raises(ValueError):
            fake_module.fail()
    t.uninstall()
    assert fake_module.inner is original
    assert t.absent == ["fake_layer.removed", "no_such_module.f"]
    names = [(s[tracer.NAME], s[tracer.PARENT], s[tracer.OP]) for s in t.spans]
    assert names == [("op", None, 0), ("layer.outer", 0, 0), ("layer.inner", 1, 0),
                     ("layer.fail", 0, 0)]
    assert t.spans[2][tracer.AMOUNT] == 3
    assert t.spans[3][tracer.ERROR] == "ValueError"
    assert check_ops(t.spans, self_times(t.spans)) == []


def test_merge_renumbers_spans_of_another_process(tmp_path):
    child = Tracer()
    with child.op("child-op"):
        pass
    child.write(tmp_path / "spans.json")
    recorded = json.loads((tmp_path / "spans.json").read_text())

    parent = Tracer()
    with parent.op("parent-op"):
        pass
    parent.merge(recorded["spans"], recorded["absent"])
    assert [s[tracer.ID] for s in parent.spans] == [0, 1]
    assert parent.spans[1][tracer.OP] == 1
    assert check_ops(parent.spans, self_times(parent.spans)) == []
