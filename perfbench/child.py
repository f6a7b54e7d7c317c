"""One benchmark request: ``clubcat.cli.main(argv)`` in a fresh interpreter.

Usage: python child.py SRC RESULT_FILE TRACE -- ARGV...

Writes to RESULT_FILE a JSON object with wall-clock readings
(``time.perf_counter``, which on Linux reads the same monotonic clock in
every process) and CPU-time readings (``time.process_time``) just after the
imports and just before and after ``main``, the machine's speed while
``main`` ran (see ``SpeedProbe``), whether ``main`` crashed and, when TRACE
is 1, the spans and counts of the request.  Exits with the code ``main``
returned.
"""

import json
import os
import signal
import sys
import time
import traceback

CRASH = 70


def loop_time(iterations, tries):
    """CPU seconds per iteration of a fixed pure-Python dict loop: the best
    of ``tries``, so that an interrupt does not count."""
    best = None
    for _ in range(tries):
        start = time.process_time()
        table = {}
        for i in range(iterations):
            key = i % 997
            table[key] = table.get(key, 0) + i
        took = time.process_time() - start
        best = took if best is None else min(best, took)
    return best / iterations


class SpeedProbe:
    """Samples the machine's speed around and during ``main``.

    Times the fixed loop for about 4 ms just before and just after ``main``,
    and for about 0.2 ms on a wall-clock timer every ``EVERY_S`` in between,
    so that a request of any length has samples over its whole duration.
    ``spent`` is the CPU time that the samples taken during ``main`` cost it.
    """

    EVERY_S = 0.01
    WIDE = (6000, 3)
    NARROW = (500, 2)

    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def _sample(self, signum, frame):
        start = time.process_time()
        self.samples.append(loop_time(*self.NARROW))
        self.spent += time.process_time() - start

    def __enter__(self):
        self.samples.append(loop_time(*self.WIDE))
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.EVERY_S, self.EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.samples.append(loop_time(*self.WIDE))
        return False


def run():
    src, result_path, traced = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
    argv = sys.argv[sys.argv.index("--") + 1:]
    sys.path.insert(0, src)
    import clubcat.cli  # noqa: F401  (imports every layer)
    ready, ready_cpu = time.perf_counter(), time.process_time()

    recorder = None
    if traced:
        sys.path.insert(0, os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))))
        from perfbench import tracing
        recorder = tracing.Recorder()
        tracing.install(recorder)
    main = sys.modules["clubcat.cli"].main

    crash = None
    probe_began = time.process_time()
    with SpeedProbe() as probe:
        start, start_cpu = time.perf_counter(), time.process_time()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            crash = traceback.format_exc()
            code = CRASH
        end, end_cpu = time.perf_counter(), time.process_time()
    probe_ended = time.process_time()
    sys.stdout.flush()

    result = {"ready": ready, "ready_cpu": ready_cpu, "start": start,
              "end": end, "start_cpu": start_cpu, "end_cpu": end_cpu,
              "probe_cpu": (start_cpu - probe_began + probe_ended - end_cpu
                            + probe.spent),
              "speed_samples": probe.samples, "probe_spent": probe.spent,
              "exit": code, "crash": crash}
    if recorder is not None:
        result["trace"] = recorder.dump()
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return code


if __name__ == "__main__":
    sys.exit(run())
