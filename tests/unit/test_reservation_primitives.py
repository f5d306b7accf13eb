"""The two reservation primitives the sharded engine leans on.

The space-sharded engine (repro.parsim) replays each shard's link and
port reservations locally and relies on two properties for bit-exact
merges: ``LinkScheduler.reserve_path`` commits contending messages in
*reservation order* — whichever reservation is made first occupies the
earlier slot on every link of the chain, so a deterministic reservation
order yields a deterministic schedule — and the fast simulator's
``WindowedPort`` tolerates slightly out-of-order reservation requests
without over-serialising (its quantum scheduling makes no ordering
promise inside a window).
"""

import pytest

from repro.fastsim.sim import WindowedPort
from repro.machine.router import (
    LinkScheduler,
    forward_links,
    reply_path,
    request_path,
)
from repro.parsim import partition_cores


# ---- WindowedPort ------------------------------------------------------------


def test_windowed_port_first_reservation_is_free():
    port = WindowedPort(window=16)
    assert port.reserve(0) == 0
    assert port.reserve(7) == 7
    assert port.reserve(3) == 3  # out-of-order laggard keeps its time


def test_windowed_port_capacity_exhaustion_rolls_to_next_window():
    port = WindowedPort(window=16)
    for _ in range(16):  # fill window [0, 16) to its capacity of 16
        assert 0 <= port.reserve(0) < 16
    # the 17th reservation cannot fit before cycle 16 any more
    assert port.reserve(0) == 16
    assert port.used == {0: 16, 1: 1}


def test_windowed_port_laggard_pushed_past_a_full_window():
    port = WindowedPort(window=16)
    for _ in range(16):
        port.reserve(0)
    # a request for cycle 5 lands at the start of the next window, not 5
    assert port.reserve(5) == 16


def test_windowed_port_boundary_rollover():
    port = WindowedPort(window=16)
    # earliest=15 is the last slot of window 0; earliest=16 opens window 1
    assert port.reserve(15) == 15
    assert port.reserve(16) == 16
    assert port.used == {0: 1, 1: 1}


def test_windowed_port_exhaustion_walks_multiple_windows():
    port = WindowedPort(window=4)
    for _ in range(8):  # fill windows [0,4) and [4,8)
        port.reserve(0)
    assert port.used == {0: 4, 1: 4}
    assert port.reserve(2) == 8  # walks past both full windows


def test_windowed_port_respects_earliest_inside_window():
    port = WindowedPort(window=16)
    # capacity is tracked per window, but the returned cycle never
    # precedes the requested earliest time
    assert port.reserve(12) == 12
    assert port.reserve(14) == 14


# ---- LinkScheduler.reserve_path ---------------------------------------------


CHAIN = [("r1>r2", 0), ("r2>r3", 0), ("r3>r2", 1)]


def test_reserve_path_uncontended_latency_is_one_per_hop():
    sched = LinkScheduler(hop_latency=1, num_cores=64)
    assert sched.reserve_path(CHAIN, 0) == len(CHAIN)
    assert sched.reserve_path([], 7) == 7  # empty path: no hops, no delay


def test_reserve_path_contending_messages_pipeline_in_order():
    sched = LinkScheduler(hop_latency=1, num_cores=64)
    first = sched.reserve_path(CHAIN, 0)
    second = sched.reserve_path(CHAIN, 0)
    third = sched.reserve_path(CHAIN, 0)
    # the chain pipelines: each follower trails the leader by one cycle
    # on every shared link, so exits are consecutive, never interleaved
    assert (first, second, third) == (3, 4, 5)


def test_reserve_path_commit_order_is_reservation_order():
    """Whoever reserves first wins the earlier slots — swapping which
    message is which (the 'call order' of the two contenders) mirrors the
    outcome and leaves the cursors in the identical final state."""
    a_then_b = LinkScheduler(hop_latency=1, num_cores=64)
    exit_a = a_then_b.reserve_path(CHAIN, 0)
    exit_b = a_then_b.reserve_path(CHAIN, 0)

    b_then_a = LinkScheduler(hop_latency=1, num_cores=64)
    exit_b2 = b_then_a.reserve_path(CHAIN, 0)
    exit_a2 = b_then_a.reserve_path(CHAIN, 0)

    assert (exit_a, exit_b) == (exit_b2, exit_a2) == (3, 4)
    assert a_then_b.state_dict() == b_then_a.state_dict()


def test_reserve_path_partial_overlap_delays_only_on_shared_links():
    sched = LinkScheduler(hop_latency=1, num_cores=64)
    long_path = request_path(0, 5)   # crosses r1>r2 down to core 5's bank
    short_path = request_path(4, 5)  # same r1 group: two hops
    assert long_path[-1] == short_path[-1] == ("r1>m", 5)
    first = sched.reserve_path(long_path, 0)
    second = sched.reserve_path(short_path, 0)
    # the short request is ready at cycle 2 but the shared bank link was
    # taken at cycle 4 by the long one — it commits behind it, at 5
    assert first == 4
    assert second == 5


def test_reserve_path_later_start_does_not_jump_the_queue():
    sched = LinkScheduler(hop_latency=1, num_cores=64)
    early = sched.reserve_path(CHAIN, 0)
    late = sched.reserve_path(CHAIN, 10)
    assert (early, late) == (3, 13)
    # and a message reserved after them starts behind both cursors
    assert sched.reserve_path(CHAIN, 0) == 14


def test_paths_are_symmetric_and_neighbour_links_restricted():
    assert len(reply_path(0, 5)) == len(request_path(0, 5))
    assert forward_links(3, 3) == []
    assert forward_links(3, 4) == [("fwd", 3)]
    with pytest.raises(ValueError):
        forward_links(3, 5)


# ---- partition_cores ---------------------------------------------------------


def test_partition_cores_balanced_with_remainder():
    assert partition_cores(16, 4) == [(0, 4), (4, 8), (8, 12), (12, 16)]
    assert partition_cores(16, 3) == [(0, 6), (6, 11), (11, 16)]
    assert partition_cores(5, 4) == [(0, 2), (2, 3), (3, 4), (4, 5)]
    assert partition_cores(4, 4) == [(0, 1), (1, 2), (2, 3), (3, 4)]
    assert partition_cores(7, 1) == [(0, 7)]


def test_partition_cores_covers_the_line_contiguously():
    for cores in (1, 4, 16, 64):
        for shards in range(1, cores + 1):
            bounds = partition_cores(cores, shards)
            assert bounds[0][0] == 0 and bounds[-1][1] == cores
            for (_, stop), (start, _) in zip(bounds, bounds[1:]):
                assert stop == start
            sizes = [stop - start for start, stop in bounds]
            assert max(sizes) - min(sizes) <= 1


def test_partition_cores_rejects_bad_shard_counts():
    with pytest.raises(ValueError):
        partition_cores(4, 0)
    with pytest.raises(ValueError):
        partition_cores(4, 5)
