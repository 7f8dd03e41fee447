"""Host-speed probe and the stopwatch that rescales times by it.

The benchmark shares a machine with other tenants.  Its speed drifts by up
to a half within seconds and over minutes, and CPU time drifts with wall
time, so the drift is the host's speed and not scheduling.  A fixed
pure-Python loop (:func:`probe`) slows down and speeds up with it.

A scenario can run for seconds, longer than the host keeps one speed, so
the :class:`Stopwatch` probes on a timer signal every
:data:`PROBE_INTERVAL_S` while a pass runs.  Each stretch of time between
two probes is rescaled by ``REFERENCE_PROBE_S`` over the (smoothed) probe
that ends it; probe time itself is excluded from every interval.  On a host
running at the reference speed, rescaled and raw seconds are equal.  Over
five processes running ``chain_storm``, the median pass took 5.52-7.07 raw
host seconds and 7.18-7.40 rescaled ones.  The rescaling is not exact: in
the host's fast phases the loop speeds up somewhat more than the
simulator does.  The signal handler touches nothing but the watch, so it
cannot change what the program computes.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

#: Iterations of the probe loop (about 2 ms on the reference host).
PROBE_LOOPS = 10_000
#: Median probe time on the reference host, an Intel Xeon vCPU at 2.0 GHz
#: running Python 3.11 (the machine the benchmark was defined on).
REFERENCE_PROBE_S = 0.0018
#: Wall seconds between probes.
PROBE_INTERVAL_S = 0.1
#: Probes either side of each probe in the running median that smooths them.
SMOOTHING = 2


def probe() -> float:
    """Seconds for a fixed pure-Python loop."""
    started = perf_counter()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc = (acc * 31 + i) & 0xFFFFFFFF
    return perf_counter() - started


class Stopwatch:
    """Per-scenario times of one pass, rescaled to the reference speed.

    Creating the watch starts the pass and the probe timer.  Call
    :meth:`stamp` as each scenario completes, :meth:`skip` after work that
    belongs to no scenario, and :meth:`finish` once, when the pass ends.
    """

    def __init__(self) -> None:
        #: ``(start, end, seconds)`` of every probe.
        self._probes: list[tuple[float, float, float]] = []
        #: ``(time, name)`` at every stamp; ``name`` is ``None`` for a skip.
        self._marks: list[tuple[float, object]] = []
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        self.started = perf_counter()
        self._probe()
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S,
                         PROBE_INTERVAL_S)

    def _probe(self) -> None:
        started = perf_counter()
        seconds = probe()
        self._probes.append((started, perf_counter(), seconds))

    def _on_timer(self, signum, frame) -> None:
        self._probe()

    def stamp(self, outcome) -> None:
        self._marks.append((perf_counter(), outcome.scenario_name))

    def skip(self) -> None:
        """Leave the time since the last stamp out of every scenario."""
        self._marks.append((perf_counter(), None))

    def finish(self) -> tuple[float, dict[str, float], float, float]:
        """End the pass.

        Returns ``(wall, scenario_s, other_s, probe_s)``: the raw host
        seconds of the pass without probes, the rescaled seconds per
        scenario name, the rescaled seconds outside any scenario and the
        median probe.
        """
        ended = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        probes = self._probes
        values = [seconds for _, _, seconds in probes]
        # Stretches of pass time between probes, each with the factor that
        # rescales it: (start, end, factor).
        stretches = []
        for index, (start, _, _) in enumerate(probes[1:], start=1):
            around = values[max(0, index - SMOOTHING):index + SMOOTHING + 1]
            stretches.append((probes[index - 1][1], start,
                              REFERENCE_PROBE_S / statistics.median(around)))
        last = values[-1 - SMOOTHING:]
        stretches.append((probes[-1][1], ended,
                          REFERENCE_PROBE_S / statistics.median(last)))

        def rescaled(begin: float, end: float) -> tuple[float, float]:
            raw = scaled = 0.0
            for start, stop, factor in stretches:
                overlap = min(stop, end) - max(start, begin)
                if overlap > 0:
                    raw += overlap
                    scaled += overlap * factor
            return raw, scaled

        scenario_s = {}
        begin = self.started
        for time, name in self._marks:
            if name is not None:
                scenario_s[name] = rescaled(begin, time)[1]
            begin = time
        wall, total = rescaled(self.started, ended)
        return (wall, scenario_s, total - sum(scenario_s.values()),
                statistics.median(values))
