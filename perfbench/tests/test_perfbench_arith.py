"""The benchmark's own arithmetic: span self time and parent linkage,
the equal-accuracy sample count and its floor, the tail rule."""

import math
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro.stats import sigma_relative_ci_halfwidth  # noqa: E402

from perfbench import arith  # noqa: E402
from perfbench.spans import Recorder, Span  # noqa: E402


def _span(sid, start, end, parent=None, pid=1, tid=1):
    s = Span(sid, "x.y", start, parent, None, pid, tid)
    s.end = end
    return s


# -- self time -----------------------------------------------------------
def test_self_time_subtracts_union_of_children():
    spans = [_span("a", 0.0, 10.0),
             _span("b", 1.0, 4.0, parent="a"),
             _span("c", 3.0, 6.0, parent="a"),      # overlaps b
             _span("d", 2.0, 3.0, parent="b")]
    st = arith.self_times(spans)
    assert st["a"] == pytest.approx(10.0 - 5.0)    # union [1, 6]
    assert st["b"] == pytest.approx(3.0 - 1.0)
    assert st["c"] == pytest.approx(3.0)
    assert st["d"] == pytest.approx(1.0)


def test_self_times_of_one_thread_partition_its_wall_time():
    spans = [_span("a", 0.0, 10.0),
             _span("b", 1.0, 4.0, parent="a"),
             _span("c", 5.0, 9.0, parent="a"),
             _span("d", 5.5, 6.0, parent="c")]
    assert sum(arith.self_times(spans).values()) == pytest.approx(10.0)


def test_children_elsewhere_do_not_reduce_self_time():
    spans = [_span("a", 0.0, 10.0),
             _span("w", 1.0, 9.0, parent="a", pid=2),   # pool worker
             _span("t", 2.0, 8.0, parent="a", tid=7)]   # helper thread
    st = arith.self_times(spans)
    assert st["a"] == pytest.approx(10.0)
    assert st["w"] == pytest.approx(8.0)


def test_child_is_clipped_to_parent_interval():
    spans = [_span("a", 0.0, 2.0), _span("b", 1.0, 5.0, parent="a")]
    assert arith.self_times(spans)["a"] == pytest.approx(1.0)


# -- recorder linkage ----------------------------------------------------
def test_recorder_links_nested_spans_and_inherits_request_id():
    rec = Recorder()
    root = rec.begin("op.cold", rid="op:1")
    inner = rec.begin("session.run")
    leaf = rec.begin("linalg.solve")
    rec.end(leaf)
    rec.end(inner)
    rec.end(root)
    assert root.parent is None
    assert inner.parent == root.sid and leaf.parent == inner.sid
    assert leaf.rid == "op:1"
    assert [s.name for s in rec.spans] == ["linalg.solve", "session.run",
                                          "op.cold"]
    assert root.start <= inner.start <= leaf.start <= leaf.end \
        <= inner.end <= root.end


def test_hand_off_links_work_on_another_thread():
    rec = Recorder()
    parent = rec.begin("resilience.scatter", rid="op:7")
    rec.hand_off(("spec", 1), parent)
    out = {}

    def worker():
        handed = rec.handed(("spec", 1))
        span = rec.begin("resilience.shard", rid=handed.rid,
                         parent=handed.sid)
        rec.end(span)
        out["span"] = span

    t = threading.Thread(target=worker)
    t.start()
    t.join(timeout=10)
    assert not t.is_alive()
    rec.end(parent)
    child = out["span"]
    assert child.parent == parent.sid and child.rid == "op:7"
    assert child.tid != parent.tid


def test_span_round_trips_through_its_wire_tuple():
    s = _span("7-3", 1.0, 2.5, parent="7-1", pid=7, tid=9)
    s.attrs = {"steps": 3}
    back = Span.from_tuple(s.to_tuple())
    assert back.to_tuple() == s.to_tuple()
    assert back.layer == "x" and back.duration == pytest.approx(1.5)


# -- equal-accuracy sample count -----------------------------------------
def test_n_eq_is_smallest_n_meeting_the_deviation():
    dev = 0.05
    n = arith.equal_accuracy_n(dev, 10_000, sigma_relative_ci_halfwidth)
    assert sigma_relative_ci_halfwidth(n) <= dev
    assert sigma_relative_ci_halfwidth(n - 1) > dev
    # 1.96 / sqrt(2 N) <= 0.05  ->  N >= 768.3
    assert n == math.ceil((1.959963984540054 / dev) ** 2 / 2)


def test_n_eq_floors_at_reference_n_inside_reference_ci():
    n_ref = 1024
    ci_ref = sigma_relative_ci_halfwidth(n_ref)
    assert arith.equal_accuracy_n(0.0, n_ref,
                                  sigma_relative_ci_halfwidth) == n_ref
    assert arith.equal_accuracy_n(ci_ref * 0.99, n_ref,
                                  sigma_relative_ci_halfwidth) == n_ref
    above = arith.equal_accuracy_n(ci_ref * 1.5, n_ref,
                                   sigma_relative_ci_halfwidth)
    assert above < n_ref


def test_n_eq_rejects_bad_inputs():
    with pytest.raises(ValueError):
        arith.equal_accuracy_n(-0.1, 10, sigma_relative_ci_halfwidth)
    with pytest.raises(ValueError):
        arith.equal_accuracy_n(0.1, 0, sigma_relative_ci_halfwidth)


# -- the tail rule -------------------------------------------------------
@pytest.mark.parametrize("n,expected", [
    (10_000, 99.9),   # 10 beyond p99.9
    (9_999, 99.0),    # only 9 beyond p99.9
    (1_000, 99.0),    # 10 beyond p99
    (999, 95.0),
    (200, 95.0),
    (199, 50.0),      # only 9 beyond p95; no rung between 95 and 50
    (100, 50.0),
    (20, 50.0),
])
def test_tail_percentile_is_highest_with_ten_beyond(n, expected):
    p = arith.tail_percentile(n)
    assert p == expected
    assert arith.beyond(n, p) >= 10
    higher = [q for q in arith.TAIL_LADDER if q > p]
    assert all(arith.beyond(n, q) < 10 for q in higher)


def test_tail_falls_back_to_median_with_few_samples():
    value, p, beyond = arith.tail([3.0, 1.0, 2.0])
    assert p == 50.0 and value == 2.0 and beyond == 1


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert arith.percentile(values, 50) == 50
    assert arith.percentile(values, 99) == 99
    assert arith.percentile(values, 100) == 100
    assert arith.percentile([5.0], 99) == 5.0



# -- unmeasurable metrics ------------------------------------------------
class _Broken:
    """A workload whose Monte-Carlo lanes all froze and whose method
    never ran."""

    def deviation(self):
        return None

    def extra_rss_kb(self):
        return 0

    def counters(self):
        return {}


def test_failed_operations_leave_metrics_unmeasured_not_a_crash():
    from perfbench.runner import end_to_end
    from perfbench.workloads import Record
    records = [Record("cold", 0.5, ok=False, why="diverged"),
               Record("warm", 0.1),
               Record("mc", 2.0, ok=False, lanes=0, lanes_failed=16)]
    metrics, details = end_to_end(_Broken(), records, 3.0,
                                  {"setup_s": 1.0})
    assert metrics["sigma_cold_s"][0] is None
    assert metrics["sigma_warm_s"][0] == 0.1
    assert metrics["mc_samples_per_s"][0] is None
    assert metrics["mc_equal_accuracy_s"][0] is None
    assert details["mc_n_eq"] is None
    assert metrics["req_per_s"][0] == pytest.approx(1.0)
