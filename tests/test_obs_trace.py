"""Tests for JSON-lines tracing (repro.obs.trace)."""

import io
import json
import pickle
import time

from repro.obs import TRACE_PHASES, Span, TraceContext, TraceEvent, Tracer


class TestTraceEvent:
    def test_as_dict_rounds_and_merges_fields(self):
        event = TraceEvent(
            ts=123.4567891234,
            span="s1",
            phase="plan",
            fingerprint="abcd",
            ms=1.23456,
            fields={"planner": "corr-seq"},
        )
        record = event.as_dict()
        assert record["ts"] == 123.456789
        assert record["ms"] == 1.235
        assert record["planner"] == "corr-seq"
        assert record["fingerprint"] == "abcd"

    def test_optional_parts_are_omitted(self):
        record = TraceEvent(ts=1.0, span="", phase="execute").as_dict()
        assert "fingerprint" not in record
        assert "ms" not in record

    def test_to_json_is_deterministic(self):
        event = TraceEvent(ts=1.0, span="s1", phase="plan", fields={"b": 1, "a": 2})
        assert event.to_json() == json.dumps(event.as_dict(), sort_keys=True)


class TestTracer:
    def test_emit_buffers_events_in_order(self):
        tracer = Tracer()
        for phase in TRACE_PHASES:
            tracer.emit(phase, span="s1")
        assert list(tracer.phases()) == list(TRACE_PHASES)
        assert tracer.emitted == len(TRACE_PHASES)

    def test_streams_one_json_line_per_event(self):
        stream = io.StringIO()
        tracer = Tracer(stream=stream)
        tracer.emit("plan", span="s1", fingerprint="ff", ms=2.0, planner="naive")
        tracer.emit("execute", span="s1", rows=3)
        lines = stream.getvalue().splitlines()
        assert len(lines) == 2
        first, second = (json.loads(line) for line in lines)
        assert first["phase"] == "plan" and first["planner"] == "naive"
        assert second["phase"] == "execute" and second["rows"] == 3

    def test_capacity_bounds_buffer_but_not_stream(self):
        stream = io.StringIO()
        tracer = Tracer(stream=stream, capacity=4)
        for index in range(10):
            tracer.emit("execute", span=f"s{index}")
        assert len(tracer.events) == 4
        assert tracer.emitted == 10
        assert len(stream.getvalue().splitlines()) == 10
        # The buffer keeps the most recent events.
        assert tracer.events[-1].span == "s9"

    def test_new_span_ids_are_unique(self):
        tracer = Tracer()
        spans = {tracer.new_span() for _ in range(50)}
        assert len(spans) == 50

    def test_clear_empties_buffer_only(self):
        tracer = Tracer()
        tracer.emit("plan")
        tracer.clear()
        assert tracer.events == ()
        assert tracer.emitted == 1

    def test_injected_clock_makes_timestamps_deterministic(self):
        ticks = iter(range(100, 110))
        tracer = Tracer(clock=lambda: float(next(ticks)))
        first = tracer.emit("plan")
        second = tracer.emit("execute")
        assert first.ts == 100.0
        assert second.ts == 101.0

    def test_injected_clock_feeds_the_stream_too(self):
        stream = io.StringIO()
        tracer = Tracer(stream=stream, clock=lambda: 42.0)
        tracer.emit("plan", span="s1")
        record = json.loads(stream.getvalue())
        assert record["ts"] == 42.0

    def test_default_clock_is_wall_time(self):
        before = time.time()
        event = Tracer().emit("plan")
        assert before <= event.ts <= time.time()

    def test_named_tracers_prefix_ids(self):
        # Two tracers with distinct names can never collide on span or
        # trace ids, even though both count from 1.
        front = Tracer(name="fd")
        shard = Tracer(name="shard0")
        assert front.new_span() == "fd-s1"
        assert shard.new_span() == "shard0-s1"
        assert front.new_trace() == "fd-t1"
        assert shard.new_trace() == "shard0-t1"
        # The unnamed tracer keeps the legacy un-prefixed format.
        assert Tracer().new_span() == "s1"


class TestTraceContext:
    def test_child_reparents_and_keeps_baggage(self):
        context = TraceContext(
            trace_id="fd-t1",
            parent_span="fd-s1",
            baggage=(("sent_ts", "3.5"),),
        )
        child = context.child("fd-s9")
        assert child.trace_id == "fd-t1"
        assert child.parent_span == "fd-s9"
        assert child.baggage == context.baggage

    def test_baggage_value_lookup(self):
        context = TraceContext(trace_id="t", baggage=(("sent_ts", "3.5"),))
        assert context.baggage_value("sent_ts") == "3.5"
        assert context.baggage_value("missing") == ""
        assert context.baggage_value("missing", "x") == "x"

    def test_with_baggage_appends(self):
        context = TraceContext(trace_id="t").with_baggage(k="v")
        assert context.baggage_value("k") == "v"


class TestSpans:
    def test_start_span_mints_trace_and_measures_duration(self):
        ticks = iter([10.0, 10.25, 10.25])
        tracer = Tracer(name="fd", clock=lambda: next(ticks))
        span = tracer.start_span("request", fingerprint="ff")
        assert isinstance(span, Span)
        assert span.trace_id == "fd-t1"
        assert span.span_id == "fd-s1"
        span.end(ok=True)
        (event,) = tracer.events
        assert event.phase == "request"
        assert event.ms == 250.0
        assert event.trace == "fd-t1"
        assert event.parent == ""
        assert event.fields["ok"] is True

    def test_end_is_idempotent(self):
        tracer = Tracer(clock=lambda: 1.0)
        span = tracer.start_span("request")
        span.end()
        span.end()
        assert span.closed
        assert tracer.emitted == 1

    def test_collect_and_ingest_round_trip(self):
        source = Tracer(name="shard0", clock=lambda: 2.0)
        with source.collect() as exported:
            span = source.start_span("shard-execute", trace="fd-t1", parent="fd-s1")
            source.emit("plan", ms=0.5, trace="fd-t1", parent=span.span_id)
            span.end()
        records = [event.as_dict() for event in exported]
        sink = Tracer(clock=lambda: 9.0)
        assert sink.ingest(exported) == 2
        # The merged events keep their original coordinates and fields.
        assert [event.as_dict() for event in sink.events] == records
        assert sink.emitted == 2

    def test_ingest_streams_merged_lines(self):
        stream = io.StringIO()
        sink = Tracer(stream=stream, clock=lambda: 1.0)
        records = [
            TraceEvent(ts=7.0, span="sh-s1", phase="plan", trace="fd-t1",
                       parent="sh-s2", ms=0.25, fields={"planner": "corr-seq"}),
            TraceEvent(ts=7.5, span="sh-s2", phase="shard-execute",
                       trace="fd-t1", parent="fd-s1", ms=2.0,
                       fields={"shard": 3}),
        ]
        assert sink.ingest(records) == 2
        # One verbatim line per record, in order, and the records
        # themselves in the buffer.
        assert stream.getvalue() == "".join(
            event.to_json() + "\n" for event in records
        )
        record = json.loads(stream.getvalue().splitlines()[1])
        assert record["ts"] == 7.5
        assert record["shard"] == 3
        assert record["trace"] == "fd-t1"
        assert sink.events == tuple(records)


class TestPickling:
    def test_trace_event_with_nested_fields_round_trips(self):
        event = TraceEvent(
            ts=1.25,
            span="shard1-s4",
            phase="shard-execute",
            fingerprint="abcd",
            ms=0.125,
            trace="fd-t2",
            parent="fd-s3",
            fields={"shard": 1, "costs": {"where": 2.5, "steps": [1, 2]}},
        )
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            copy = pickle.loads(pickle.dumps(event, protocol=protocol))
            assert copy == event
            assert copy.to_json() == event.to_json()

    def test_trace_context_round_trips(self):
        context = TraceContext("fd-t1", "fd-s1", (("sent_ts", "1.5"),))
        assert pickle.loads(pickle.dumps(context)) == context
