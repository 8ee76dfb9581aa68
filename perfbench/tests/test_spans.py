import pytest

import spans
from spans import Span


def test_self_time_subtracts_child_coverage():
    tree = [
        Span("root", 0.0, 10.0, None),
        Span("a", 1.0, 4.0, 0),
        Span("a.child", 2.0, 3.0, 1),
        Span("b", 5.0, 9.0, 0),
        Span("b.x", 5.0, 7.0, 3),
        Span("b.y", 6.0, 8.5, 3),   # overlaps b.x: covered once
    ]
    assert spans.self_times(tree) == pytest.approx(
        [10.0 - 3.0 - 4.0, 3.0 - 1.0, 1.0, 4.0 - 3.5, 2.0, 2.5])


def test_self_time_clips_children_to_the_parent():
    tree = [Span("p", 0.0, 2.0, None), Span("c", 1.5, 3.0, 0)]
    assert spans.self_times(tree) == pytest.approx([1.5, 1.5])


def test_recorder_nests_by_context():
    rec = spans.Recorder()
    with rec.span("outer"):
        with rec.span("inner"):
            pass
        with rec.span("sibling"):
            pass
    with rec.span("next"):
        pass
    assert [(s.name, s.parent) for s in rec.spans] == [
        ("outer", None), ("inner", 0), ("sibling", 0), ("next", None)]
    assert all(s.end >= s.start for s in rec.spans)
    own = spans.self_times(rec.spans)
    assert own[0] == pytest.approx(
        (rec.spans[0].end - rec.spans[0].start)
        - sum(s.end - s.start for s in rec.spans[1:3]))


def test_wrap_records_span_and_hook_outside_it():
    rec = spans.Recorder()
    seen = []

    def hook(r, idx, args, kwargs, result):
        seen.append((r.spans[idx].name, args, kwargs, result))
        r.count("n", result)

    add = spans.wrap(rec, "m.add", lambda a, b=0: a + b, hook)
    with rec.span("caller"):
        assert add(2, b=3) == 5
    assert seen == [("m.add", (2,), {"b": 3}, 5)]
    assert rec.counters["n"] == 5
    assert [(s.name, s.parent) for s in rec.spans] == [
        ("caller", None), ("m.add", 0), ("bench.hook", 0)]


def test_wrap_closes_span_when_the_call_raises():
    rec = spans.Recorder()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        spans.wrap(rec, "boom", boom)()
    with rec.span("after"):
        pass
    assert rec.spans[0].end >= rec.spans[0].start
    assert rec.spans[1].parent is None
