"""Host-speed probe: scale measured times to a fixed reference speed.

The benchmark runs on a few vCPUs of a shared host whose speed drifts by
20-60% over tens of seconds to minutes as other tenants come and go.  That
drift is not descheduling (CPU time inflates with wall time), so neither
medians nor minima over a run remove it: a whole run can land in a slow
stretch.  The probe measures the drift alongside the sweep instead.

:meth:`SpeedProbe.start` arms a ``SIGALRM`` interval timer; every
:data:`INTERVAL_S` of wall time the handler runs a fixed pure-Python loop
(the same bytecode mix the library spends its time in: dict and list
access, integer arithmetic) and records the CPU time it took.  Over a
window (set-up, or the sweep), :meth:`SpeedProbe.window` gives the mean
probe CPU time and the wall and CPU time the probes themselves used.  A
time ``t`` measured over the window is reported as::

    (t - probe time) * REFERENCE_PROBE_S / mean probe CPU time

that is, in seconds at the speed at which the probe takes
:data:`REFERENCE_PROBE_S`.  A slower program still reads slower by the same
factor; only the host's speed cancels.

The handler runs in the main thread between bytecodes and touches only the
probe's own state.  Interval timers are not inherited across ``fork``, so
pool workers run no probes; their CPU time is scaled by the probes of the
process that waits for them.
"""

from __future__ import annotations

import signal
import statistics
import time

#: Probe CPU time (s) at the reference speed: about what one probe takes on
#: an idle vCPU of the 2-vCPU host the baseline was recorded on.
REFERENCE_PROBE_S = 0.004
#: Wall time between two probes.
INTERVAL_S = 0.1
#: Iterations of the probe loop per probe.
PROBE_LOOPS = 8


def _probe_loop() -> int:
    table: dict[int, int] = {}
    values = []
    acc = 0
    for i in range(2000):
        key = i & 63
        table[key] = table.get(key, 0) + (i * 7 ^ (i >> 3))
        acc = (acc + table[key]) & 0xFFFFFFFF
        values.append(acc)
    return acc + len(values)


class SpeedProbe:
    """Periodic probes of this process's interpreter speed."""

    def __init__(self):
        #: (monotonic start, CPU seconds, wall seconds) of every probe.
        self.samples: list[tuple[float, float, float]] = []

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _tick(self, signum, frame) -> None:
        started = time.monotonic()
        cpu = time.thread_time()
        for _ in range(PROBE_LOOPS):
            _probe_loop()
        self.samples.append((started, time.thread_time() - cpu,
                             time.monotonic() - started))

    def window(self, start: float, end: float) -> dict:
        """Probe figures over the monotonic interval [start, end).

        A window too short to hold a probe takes its speed from all
        probes so far.
        """
        inside = [s for s in self.samples if start <= s[0] < end]
        speed_from = inside or self.samples
        return {"probes": len(inside),
                "probe_cpu_mean_s": (statistics.fmean(s[1] for s in speed_from)
                                     if speed_from else REFERENCE_PROBE_S),
                "probe_cpu_s": sum(s[1] for s in inside),
                "probe_wall_s": sum(s[2] for s in inside)}


def scaled(seconds: float, probe_s: float, window: dict) -> float:
    """``seconds`` measured over ``window``, less ``probe_s`` of the probes'
    own time, at the reference speed."""
    return ((seconds - probe_s) * REFERENCE_PROBE_S
            / window["probe_cpu_mean_s"])
