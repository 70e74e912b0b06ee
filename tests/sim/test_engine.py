"""Tests for the discrete-event engine."""

import pytest

from repro.sim.engine import EventQueue


class TestEventQueue:
    def test_orders_by_time(self):
        queue = EventQueue()
        queue.push(3.0, "c")
        queue.push(1.0, "a")
        queue.push(2.0, "b")
        assert [queue.pop().payload for _ in range(3)] == ["a", "b", "c"]

    def test_fifo_within_equal_times(self):
        queue = EventQueue()
        queue.push(1.0, "first")
        queue.push(1.0, "second")
        queue.push(1.0, "third")
        assert [queue.pop().payload for _ in range(3)] == ["first", "second", "third"]

    def test_now_tracks_last_pop(self):
        queue = EventQueue()
        assert queue.now == float("-inf")
        queue.push(5.0, "x")
        queue.pop()
        assert queue.now == 5.0

    def test_rejects_scheduling_in_the_past(self):
        queue = EventQueue()
        queue.push(5.0, "x")
        queue.pop()
        with pytest.raises(ValueError):
            queue.push(4.0, "too-late")

    def test_allows_scheduling_at_current_time(self):
        queue = EventQueue()
        queue.push(5.0, "x")
        queue.pop()
        queue.push(5.0, "now-is-fine")
        assert queue.pop().payload == "now-is-fine"

    def test_peek_time(self):
        queue = EventQueue()
        assert queue.peek_time() is None
        queue.push(2.5, "x")
        assert queue.peek_time() == 2.5
        assert len(queue) == 1

    def test_bool_and_len(self):
        queue = EventQueue()
        assert not queue
        queue.push(1.0, "x")
        assert queue and len(queue) == 1
