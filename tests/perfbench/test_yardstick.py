"""The yardstick that rescales host seconds to the reference host."""

from perfbench.yardstick import CHASE_SLOTS, CHECKSUM, REF_S, HostScale, chase_table, yardstick


def test_chase_table_is_one_cycle_through_every_slot():
    table = chase_table()
    seen = bytearray(CHASE_SLOTS)
    slot = 0
    for _ in range(CHASE_SLOTS):
        seen[slot] = 1
        slot = table[slot]
    assert slot == 0 and all(seen)


def test_yardstick_computes_its_fixed_checksum():
    assert yardstick(chase_table()) == CHECKSUM


def test_around_scales_by_the_bracketing_yardstick_runs():
    host = HostScale()
    result, scale = host.around(lambda: "sample")
    assert result == "sample"
    assert len(host.times) == 2
    assert scale == 2 * REF_S / (host.times[0] + host.times[1])
    # The run after one sample is the run before the next.
    _, scale = host.around(lambda: None)
    assert len(host.times) == 3
    assert scale == 2 * REF_S / (host.times[1] + host.times[2])
