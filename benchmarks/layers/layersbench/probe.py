"""A machine-speed probe: ``python -m layersbench.probe``.

The sandboxes this benchmark runs in share their cores: the CPU time of
any fixed pure-Python loop drifts by 10-40 % over seconds, differently
on each core, the hypervisor takes a core away in bursts, and every
latency follows. This process, pinned to one core, spins a fixed loop
for under a millisecond every 25 ms (2-3 % of the core) and prints, per
spin, the system-wide monotonic clock, the spin's CPU time and its wall
time, until its stdin closes. The driver divides every time it reports
by how slow the probes say the machine was while that time was taken,
so what it reports is time at the reference speed.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from bisect import bisect_left, bisect_right
from pathlib import Path

from layersbench.spans import median

#: CPU seconds of one spin at the reference speed (roughly the box the
#: first baseline was taken on, on a quiet day).
REFERENCE_SPIN_S = 0.00080


def spin() -> int:
    """Builds and reads a dict of tuples and strings: allocation,
    hashing and pointer chasing, which is what the product's time goes
    on. Measured against real evaluation and wire work in one process,
    its CPU time tracked theirs more closely (residual 3 %) than an
    integer loop's did (4.5 %)."""
    table = {}
    for i in range(3000):
        table[i] = (i, str(i))
    return sum(len(value[1]) for value in table.values())


def main() -> int:
    stop = threading.Event()
    threading.Thread(
        target=lambda: (sys.stdin.read(), stop.set()), daemon=True
    ).start()
    while not stop.is_set():
        wall, cpu = time.perf_counter(), time.thread_time()
        spin()
        now = time.perf_counter()
        print(now, time.thread_time() - cpu, now - wall, flush=True)
        stop.wait(0.025)
    return 0


class Probe:
    """The probe subprocess, seen from the driver."""

    #: A window is widened by this much on both sides, so that even a
    #: few-millisecond window holds samples.
    PAD_S = 0.15

    def __init__(self, bench_dir: Path, cpu: int):
        self._proc = subprocess.Popen(
            [sys.executable, "-m", "layersbench.probe"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            cwd=bench_dir,
            text=True,
        )
        # The cores drift apart, so a probe watches one core: the one
        # the work it is to correct for runs on.
        os.sched_setaffinity(self._proc.pid, {cpu})
        #: ``(end time, CPU seconds, wall seconds)`` per spin.
        self._samples: list[tuple[float, float, float]] = []
        self._reader = threading.Thread(target=self._read, name="probe-reader")
        self._reader.start()
        while not self._samples and self._proc.poll() is None:
            time.sleep(0.005)  # a window may open as soon as this returns

    def _read(self) -> None:
        for line in self._proc.stdout:
            at, cpu, wall = line.split()
            self._samples.append((float(at), float(cpu), float(wall)))

    def stop(self) -> None:
        """Close the probe's stdin (its stop signal) and wait for it."""
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._reader.join()
        self._proc.stdout.close()

    def _samples_until(self, end: float) -> tuple[list[float], list[tuple]]:
        while time.perf_counter() < end + 0.05:
            time.sleep(0.01)  # let the samples up to ``end`` arrive
        samples = list(self._samples)
        return [sample[0] for sample in samples], samples

    @staticmethod
    def _window(at: list[float], samples: list[tuple], start: float, end: float) -> list[tuple]:
        # A busy core starves the probe now and then: widen the window
        # until it holds enough samples for a median.
        pad = Probe.PAD_S
        while True:
            window = samples[bisect_left(at, start - pad) : bisect_right(at, end + pad)]
            if len(window) >= 5:
                return window
            if len(window) == len(samples):
                raise RuntimeError(f"the probe produced only {len(samples)} samples")
            pad *= 2

    @staticmethod
    def _stolen(window: list[tuple]) -> float:
        """Wall time per CPU second over ``window``: above 1.0 when the
        hypervisor (or a neighbour on the core) took the core away in
        bursts, which a median of CPU times cannot see."""
        return sum(wall for _, _, wall in window) / sum(cpu for _, cpu, _ in window)

    def factor(self, start: float, end: float) -> float:
        """How slow this probe's core was in ``[start, end]``
        (perf_counter readings, a clock the probe shares): 1.0 is the
        reference speed, 1.2 is 20 % slower. The median CPU time of a
        spin says how slowly the core computed; wall over CPU time says
        how much of the time it computed at all."""
        window = self._window(*self._samples_until(end + self.PAD_S), start, end)
        return median([cpu for _, cpu, _ in window]) / REFERENCE_SPIN_S * self._stolen(window)

    def factors_at(self, times: list[float]) -> list[float]:
        """:meth:`factor` around each of ``times``. The speed drifts
        within a phase, so latencies are corrected one by one: a
        percentile over raw latencies would pick its samples from the
        slow stretches. (The stolen share is too bursty for that and is
        taken over all of ``times`` at once.)"""
        if not times:
            return []
        at, samples = self._samples_until(max(times) + self.PAD_S)
        stolen = self._stolen(self._window(at, samples, min(times), max(times)))
        return [
            median([cpu for _, cpu, _ in self._window(at, samples, t, t)])
            / REFERENCE_SPIN_S
            * stolen
            for t in times
        ]


class Speed:
    """The server core's probe and the load generator core's, blended.

    A latency is CPU work on both cores (evaluate and encode on the
    server's, send and decode on the load generator's), so it is
    corrected by both cores' factors, weighted by the share of the
    phase's CPU time each process used.
    """

    def __init__(self, server: Probe, driver: Probe):
        self.server = server
        self.driver = driver

    def stop(self) -> None:
        self.server.stop()
        self.driver.stop()

    def window(self, start: float, end: float, server_share: float) -> float:
        return server_share * self.server.factor(start, end) + (
            1 - server_share
        ) * self.driver.factor(start, end)

    def each(self, timed: list[tuple[float, float]], server_share: float) -> list[float]:
        """``[(end time, seconds), ...]`` -> seconds at the reference speed."""
        ends = [ended for ended, _ in timed]
        blended = zip(self.server.factors_at(ends), self.driver.factors_at(ends))
        return [
            seconds / (server_share * s + (1 - server_share) * d)
            for (_, seconds), (s, d) in zip(timed, blended)
        ]


if __name__ == "__main__":
    sys.exit(main())
