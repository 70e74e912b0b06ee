import sys
import types

import pytest

from spans import SpanRecorder, structure


@pytest.fixture
def target_module():
    """A throwaway module whose callables look each other up at call time."""
    module = types.ModuleType("suite_span_target")

    class Base:
        def inherited(self):
            return "base"

    class Worker(Base):
        def outer(self, n):
            return module.leaf(n) + module.leaf(n)

        @staticmethod
        def helper(x):
            return x + 1

    def leaf(n):
        return n

    def countdown(n):
        return 0 if n == 0 else 1 + module.countdown(n - 1)

    module.Base, module.Worker, module.leaf, module.countdown = Base, Worker, leaf, countdown
    sys.modules[module.__name__] = module
    yield module
    del sys.modules[module.__name__]


def test_structure_of_nested_spans():
    # Post-order: two children, then their parent, then a lone root.
    spans = [(0, 1.0, 2.0), (0, 3.0, 4.5), (1, 0.5, 5.0), (2, 6.0, 7.0)]
    parents, selfs = structure(spans)
    assert parents == [2, 2, -1, -1]
    assert selfs == [1.0, 1.5, 4.5 - 2.5, 1.0]


def test_self_times_add_up_to_the_root(target_module):
    recorder = SpanRecorder()
    assert recorder.wrap("outer", "suite_span_target:Worker.outer")
    assert recorder.wrap("leaf", "suite_span_target:leaf")
    try:
        with recorder.span("root"):
            for _ in range(3):
                target_module.Worker().outer(2)
    finally:
        recorder.unwrap_all()
    totals = recorder.totals()
    assert totals["outer"]["calls"] == 3
    assert totals["leaf"]["calls"] == 6
    root = recorder.spans[-1]
    assert sum(recorder.self_times()) == pytest.approx(root[2] - root[1], rel=1e-12)
    parents, _ = structure(recorder.spans)
    names = [recorder.names[span[0]] for span in recorder.spans]
    for name, parent in zip(names, parents):
        expected = {"leaf": "outer", "outer": "root", "root": None}[name]
        assert (names[parent] if parent >= 0 else None) == expected


def test_recursive_spans_count_once_in_total(target_module):
    recorder = SpanRecorder()
    recorder.wrap("countdown", "suite_span_target:countdown")
    try:
        with recorder.span("root"):
            assert target_module.countdown(4) == 4
    finally:
        recorder.unwrap_all()
    totals = recorder.totals()
    assert totals["countdown"]["calls"] == 5
    outermost = recorder.spans[-2]  # post-order: the first call ends last
    assert totals["countdown"]["total_s"] == outermost[2] - outermost[1]
    assert totals["countdown"]["self_s"] + totals["root"]["self_s"] == pytest.approx(
        recorder.spans[-1][2] - recorder.spans[-1][1], rel=1e-12
    )


def test_unwrap_restores_own_inherited_and_static_attributes(target_module):
    worker_cls = target_module.Worker
    own = worker_cls.__dict__["outer"]
    static = worker_cls.__dict__["helper"]
    recorder = SpanRecorder()
    recorder.wrap("inherited", "suite_span_target:Worker.inherited")
    recorder.wrap("helper", "suite_span_target:Worker.helper")
    recorder.wrap("outer", "suite_span_target:Worker.outer")
    assert worker_cls().inherited() == "base"
    assert worker_cls.helper(1) == 2 and worker_cls().helper(1) == 2
    recorder.unwrap_all()
    assert worker_cls.__dict__["outer"] is own
    assert worker_cls.__dict__["helper"] is static
    assert "inherited" not in worker_cls.__dict__
    assert [recorder.names[s[0]] for s in recorder.spans] == ["inherited", "helper", "helper"]


def test_missing_target_is_reported_absent(target_module):
    recorder = SpanRecorder()
    assert not recorder.wrap("gone", "suite_span_target:Worker.gone")
    assert not recorder.wrap("nomodule", "suite_no_such_module:f")
    assert recorder.absent == ["gone", "nomodule"]


def test_iterate_times_every_next_and_decisions_split_spans():
    recorder = SpanRecorder()
    with recorder.span("root"):
        for index, item in enumerate(recorder.iterate("next", [10, 20, 30])):
            assert item == (index + 1) * 10
            recorder.mark_decision()
    totals = recorder.totals()
    assert totals["next"]["calls"] == 4  # the last one hits the end
    starts = [span[1] for span in recorder.spans if recorder.names[span[0]] == "next"]
    assert [recorder.decision_of(start) for start in starts] == [0, 1, 2, 3]
