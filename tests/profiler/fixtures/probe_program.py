"""Probe golden fixture: a deterministic program for the probe runtime.

Executed through ``SourceInstrumenter.run_source`` with ``clock`` (a
``VirtualClock`` shared with the backend) injected as a global.  Every
function advances the clock, so each record's energy is fixed by the
program alone.  Covers nested calls, an exception unwinding through
probed frames, and a probed generator whose consumer calls another
probed function between resumes.
"""


def leaf(n):
    clock.advance(0.001 * n, 0.0007 * n)
    return n * 2


def middle(n):
    clock.advance(0.0005, 0.0005)
    total = 0
    for i in range(n):
        total += leaf(i + 1)
    clock.advance(0.0002, 0.0001)
    return total


def explode(depth):
    clock.advance(0.0003, 0.0002)
    if depth == 0:
        raise ValueError("unwind")
    return explode(depth - 1)


def guarded():
    clock.advance(0.0004, 0.0001)
    try:
        explode(3)
    except ValueError:
        clock.advance(0.0006, 0.0006)
    return 1


def countdown(n):
    while n:
        clock.advance(0.0002 * n, 0.0001 * n)
        yield n
        n -= 1


def consume():
    total = 0
    for value in countdown(4):
        total += leaf(value)
    return total


def main():
    clock.advance(0.01, 0.002)
    for n in (1, 3, 2):
        middle(n)
    guarded()
    consume()
    clock.advance(0.02, 0.005)


main()
