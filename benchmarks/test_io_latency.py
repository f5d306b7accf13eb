"""Experiment E6 — figure 16/17: bounded, repeatable I/O response time.

LBP takes no interrupts: the sensor team actively polls, the join orders
the fusion, the actuator write follows within a bounded number of cycles
of the *last* sensor becoming ready.  We measure, for every round,

    response(r) = actuator_write_cycle(r) - max_i sensor_ready(i, r)

and assert it is tightly bounded and identical across repeated runs —
the paper's contrast with "interrupt handler + thread wake up + thread
running" whose response time "is very hard to bound".
"""

from repro.compiler import compile_to_program
from repro.machine import LBP, Params
from repro.workloads.sensors import attach_sensors, expected_fusions, sensors_source

CORES = 4
ROUNDS = 5


def _run(schedules):
    program = compile_to_program(sensors_source(CORES, ROUNDS), "sensors.c")
    machine = LBP(Params(num_cores=CORES)).load(program)
    _sensors, actuator = attach_sensors(machine, CORES, schedules)
    machine.run(max_cycles=10_000_000)
    return actuator.writes


def test_io_response_time_bounded():
    # one event every 800 cycles: beyond the round's processing time, so
    # the system reaches a steady state (an oversubscribed period would
    # make responses grow round over round — also a useful property to
    # know, covered in tests/)
    schedules = [
        [(800 * (r + 1) + 29 * i, 1000 * r + i) for r in range(ROUNDS)]
        for i in range(4)
    ]
    writes = _run(schedules)
    assert [value for _c, value in writes] == expected_fusions(schedules, ROUNDS)

    responses = []
    for r, (cycle, _value) in enumerate(writes):
        last_ready = max(schedules[i][r][0] for i in range(4))
        responses.append(cycle - last_ready)
    print()
    print("per-round response times (cycles):", responses)

    # bounded: polling + fusion + join, a small constant
    assert all(0 < response < 400 for response in responses), responses
    # steady: round-to-round variation stays within one polling-loop
    # period (the ready moment lands at a different phase of the active
    # wait each round; everything else is constant)
    assert max(responses) - min(responses) <= 32, responses

    # and fully deterministic across runs
    writes_again = _run(schedules)
    assert writes_again == writes
