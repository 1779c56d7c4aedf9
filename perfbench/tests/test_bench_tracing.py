from concurrent.futures import ThreadPoolExecutor

import pytest

from tracing import Span, Tracer, covered, instrument, self_times


def _span(sid, name, start, end, parent):
    return Span(sid, name, start, end, parent, "run")


def test_self_time_counts_overlapping_worker_children_once():
    spans = [
        _span(0, "pipeline.run", 0.0, 10.0, None),
        _span(1, "prompting.render", 1.0, 3.0, 0),   # main thread
        _span(2, "gateway.complete", 2.0, 6.0, 0),   # worker thread 1
        _span(3, "gateway.complete", 5.0, 8.0, 0),   # worker thread 2
        _span(4, "gateway.provider", 2.5, 3.5, 2),
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 7.0)  # children cover [1, 8]
    assert own[1] == pytest.approx(2.0)
    assert own[2] == pytest.approx(3.0)
    assert own[3] == pytest.approx(3.0)
    assert own[4] == pytest.approx(1.0)
    for s in spans:
        children = [(c.start, c.end) for c in spans if c.parent == s.id]
        assert own[s.id] + covered(s.start, s.end, children) == pytest.approx(s.duration)


def test_covered_clips_children_to_the_parent():
    assert covered(0.0, 4.0, [(-1.0, 1.0), (3.0, 9.0), (0.5, 2.0)]) == pytest.approx(3.0)
    assert covered(0.0, 4.0, []) == 0.0


def test_worker_thread_spans_take_the_enclosing_stage_span_as_parent():
    tracer = Tracer("run-1")

    def work(_):
        with tracer.span("gateway.complete"):
            with tracer.span("gateway.provider"):
                pass

    with tracer.span("pipeline.run"):
        with ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(work, range(4)))
    by_id = {s.id: s for s in tracer.spans}
    stage = tracer.spans[0]
    completes = [s for s in tracer.spans if s.name == "gateway.complete"]
    providers = [s for s in tracer.spans if s.name == "gateway.provider"]
    assert len(completes) == len(providers) == 4
    assert all(s.parent == stage.id for s in completes)
    assert all(by_id[s.parent].name == "gateway.complete" for s in providers)
    assert all(s.run_id == "run-1" and s.end >= s.start for s in tracer.spans)


def test_instrument_restores_every_replaced_name():
    from tripleforge import gateway, pipeline, similarity

    before = (pipeline.load_dataset, dict(pipeline.STAGES), similarity.set_distance,
              gateway.LlmGateway.__dict__["complete"],
              similarity.PoolDistanceMatrix.__dict__["load"])
    with instrument(Tracer("run-2")):
        assert pipeline.load_dataset is not before[0]
    after = (pipeline.load_dataset, dict(pipeline.STAGES), similarity.set_distance,
             gateway.LlmGateway.__dict__["complete"],
             similarity.PoolDistanceMatrix.__dict__["load"])
    assert after == before
