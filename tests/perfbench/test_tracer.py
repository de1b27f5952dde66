"""Self-time arithmetic of the perfbench tracer, on a fake clock."""

import pytest

from perfbench.tracer import SpanCost, Tracer, calibrate


class FakeClock:
    """Advances by a fixed step on every read, plus explicit work."""

    def __init__(self, step=1.0):
        self.now = 0.0
        self.step = step

    def __call__(self):
        self.now += self.step
        return self.now

    def work(self, seconds):
        self.now += seconds


def build_tree(clock):
    """root -> a -> (b, c -> b), with known work in every span."""
    tracer = Tracer(("root", "a", "b", "c"), clock=clock)

    def b():
        clock.work(3)

    b = tracer.wrap("b", b)

    def c():
        clock.work(5)
        b()

    c = tracer.wrap("c", c)

    def a():
        clock.work(7)
        b()
        c()

    a = tracer.wrap("a", a)

    def root():
        clock.work(11)
        a()

    return tracer, tracer.wrap("root", root)


def test_self_times_sum_to_root_inclusive():
    clock = FakeClock(step=1.0)
    tracer, root = build_tree(clock)
    root()
    times = tracer.layer_times()
    assert {n: t.calls for n, t in times.items()} == {"root": 1, "a": 1, "b": 2, "c": 1}
    # Every clock read is one step: a span's end read lands inside the
    # span, its start read inside its parent.
    assert times["b"].self_s == pytest.approx(2 * (3 + 1))
    assert times["c"].self_s == pytest.approx(5 + 1 + 1)
    assert times["a"].self_s == pytest.approx(7 + 1 + 2)
    assert times["root"].self_s == pytest.approx(11 + 1 + 1)
    assert tracer.root_s == pytest.approx((11 + 7 + 5 + 3 + 3) + 5 + 4)
    assert sum(t.self_s for t in times.values()) == pytest.approx(tracer.root_s)
    assert tracer.spans == 5


def test_span_cost_is_taken_from_own_and_parent_self_time():
    clock = FakeClock(step=1.0)
    tracer, root = build_tree(clock)
    root()
    cost = SpanCost(inside=0.5, outside=1.0)
    times = tracer.layer_times(cost)
    # b: 2 calls, no children; a: 1 call, 2 children (b, c).
    assert times["b"].self_s == pytest.approx(8 - 2 * 0.5)
    assert times["a"].self_s == pytest.approx(10 - 0.5 - 2 * 1.0)
    wrapper = 5 * 0.5 + 4 * 1.0  # every span inside, every nested span outside
    assert sum(t.self_s for t in times.values()) == pytest.approx(tracer.root_s - wrapper)


def test_wrapper_cost_is_what_the_layers_lose():
    clock = FakeClock(step=1.0)
    tracer, root = build_tree(clock)
    root()
    cost = SpanCost(inside=0.5, outside=1.0)
    kept = sum(t.self_s for t in tracer.layer_times(cost).values())
    assert tracer.wrapper_s(cost) == pytest.approx(5 * 0.5 + 4 * 1.0)
    assert kept + tracer.wrapper_s(cost) == pytest.approx(tracer.root_s)


def test_a_cost_larger_than_a_layers_self_time_leaves_zero():
    clock = FakeClock(step=1.0)
    tracer, root = build_tree(clock)
    root()
    times = tracer.layer_times(SpanCost(inside=0.0, outside=6.0))
    # root has 1 child (a): 13 - 6; a has 2 children (b, c): 10 - 12.
    assert times["root"].self_s == pytest.approx(7)
    assert times["a"].self_s == 0.0


def test_a_raising_call_is_still_a_span():
    clock = FakeClock()
    tracer = Tracer(("root", "child"), clock=clock)

    def fail():
        clock.work(4)
        raise ValueError("boom")

    child = tracer.wrap("child", fail)

    def root():
        with pytest.raises(ValueError):
            child()

    tracer.wrap("root", root)()
    times = tracer.layer_times()
    assert times["child"].calls == 1
    assert times["child"].self_s == pytest.approx(5)
    assert sum(t.self_s for t in times.values()) == pytest.approx(tracer.root_s)


def test_chrome_trace_links_each_span_to_its_enclosing_span():
    clock = FakeClock()
    tracer, root = build_tree(clock)
    root()
    events = tracer.chrome_trace()["traceEvents"]
    by_id = {e["args"]["id"]: e for e in events}
    assert [e["name"] for e in events] == ["root", "a", "b", "c", "b"]
    parents = [by_id[e["args"]["parent"]]["name"] if e["args"]["parent"] >= 0 else None
               for e in events]
    assert parents == [None, "root", "a", "a", "c"]
    assert all(e["ph"] == "X" and e["dur"] > 0 for e in events)


def test_span_log_is_capped_but_aggregates_are_not():
    tracer = Tracer(("x",), clock=FakeClock(), log_cap=3)
    fn = tracer.wrap("x", lambda: None)
    for _ in range(10):
        fn()
    assert tracer.layer_times()["x"].calls == 10
    assert len(tracer.chrome_trace()["traceEvents"]) == 3


def test_calibrated_cost_is_positive_and_small():
    cost = calibrate(calls=2000, trials=3)
    assert 0 < cost.per_span < 1e-4

