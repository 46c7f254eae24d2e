import pytest

from tracing import Span, Tracer, self_time_by_name, self_times


def _span(i, parent, start, end, name="s"):
    return Span(i, 0, parent, name, start, end)


def test_self_time_subtracts_union_of_children_clipped_to_parent():
    spans = [
        _span(0, None, 0.0, 10.0),
        _span(1, 0, 1.0, 3.0),
        _span(2, 0, 2.0, 5.0),   # overlaps span 1: [1, 5] is covered once
        _span(3, 0, 9.0, 12.0),  # runs past the parent: only [9, 10] counts
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 4.0 - 1.0)
    assert own[1] == pytest.approx(2.0)
    assert own[3] == pytest.approx(3.0)


def test_grandchildren_count_only_against_their_own_parent():
    spans = [
        _span(0, None, 0.0, 10.0),
        _span(1, 0, 2.0, 8.0),
        _span(2, 1, 3.0, 7.0),
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(4.0)
    assert own[1] == pytest.approx(2.0)
    assert own[2] == pytest.approx(4.0)
    assert sum(own.values()) == pytest.approx(spans[0].duration)


def test_tracer_links_parents_and_trace_ids():
    ticks = iter(float(t) for t in range(100))
    tracer = Tracer(clock=lambda: next(ticks))
    with tracer.span("cli.solve", case="a"):
        with tracer.span("solver.minimize"):
            pass
        with tracer.span("cli.write_artifacts"):
            pass
    with tracer.span("cli.verify"):
        pass
    solve, minimize, write, verify = tracer.spans
    assert minimize.parent_id == solve.span_id and write.parent_id == solve.span_id
    assert {solve.trace_id, minimize.trace_id, write.trace_id} == {solve.span_id}
    assert verify.parent_id is None and verify.trace_id != solve.trace_id
    # clock ticks: solve 0..5, minimize 1..2, write 3..4
    by_name = self_time_by_name(tracer.spans)
    assert by_name["cli.solve"] == {"count": 1, "total_s": 5.0, "self_s": 3.0}


def test_span_end_is_recorded_when_the_body_raises():
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.span("boom"):
            raise RuntimeError
    assert tracer.spans[0].duration >= 0.0
