"""Run one elastic-mine command and report what it cost.

Usage: python3 bench/cli_child.py <report.json> <elastic-mine arguments...>

Behaves as ``python -m elastic_mine.cli <arguments>`` and writes to the
report file the process's CPU time (user + system, interpreter start-up
included, the kernel runs excluded) and two timings of the reference
kernel, taken in this process before and after the command, by which the
caller scales the CPU time to nominal speed. A CLI process is timed by its
own CPU time because its wall time also carries process spawning and
scheduling delays that vary by 10% between identical runs on a shared
machine.
"""

import json
import resource
import sys
import time

from measure import TIMED_RUNS, _reference_kernel


def _kernel_seconds() -> tuple[float, float]:
    """(fastest, total) CPU seconds of TIMED_RUNS runs of the reference kernel."""
    runs = []
    for _ in range(TIMED_RUNS):
        a = time.thread_time()
        _reference_kernel()
        runs.append(time.thread_time() - a)
    return min(runs), sum(runs)


def main() -> int:
    report, argv = sys.argv[1], sys.argv[2:]
    before, spent_before = _kernel_seconds()
    from elastic_mine.cli import main as cli_main

    try:
        code = cli_main(argv)
    except SystemExit as exc:  # argparse exits after --help
        code = exc.code
    after, spent_after = _kernel_seconds()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    with open(report, "w", encoding="utf-8") as fh:
        json.dump({"cpu_s": usage.ru_utime + usage.ru_stime - spent_before - spent_after,
                   "kernel_s": [before, after]}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
