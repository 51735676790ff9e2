"""One benchmark client: a fresh process that serves requests in a closed loop.

    python3 bench/worker.py SRC_DIR

The worker times the reference kernel a few times, imports biracks and
biracks.cli from SRC_DIR, prints "ready" and a JSON object with those
timings and the wall time they took, then times the kernel as often again
and prints those timings on a line of their own.  It then reads the path
of a JSON spec from stdin (end of input means exit; run.py starts workers
that way to time set-up alone).  It runs the spec's request list in the
spec's order, pass after pass, each request one in-process call of
biracks.cli.main(argv) with stdout and stderr captured.  A request's
latency is the CPU time it used (cpu_seconds), so that time in which the
machine runs something else instead of the worker does not count.
Meanwhile a timer signal times the reference kernel every
SAMPLE_INTERVAL_S seconds of wall time (the "samples" of the result), and
each latency leaves out the time those timings took.  It stops at the first request that ends at or
after `seconds`, once at least one whole pass is done; with `whole_passes`
(the traced run, whose counts are per pass) it stops only at the end of a
pass.  It writes a JSON result file and, when tracing, a span file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import signal
import sys
import time


# The reference kernel's fixed data: an operation table on N points and,
# for the labeling search, constraints (a, b, c) meaning x_c = TABLE[x_a][x_b].
N = 12
TABLE = tuple(tuple((7 * i + 5 * j + i * j) % N for j in range(N)) for i in range(N))
POINTS, NODES = 7, 130
CONSTRAINTS = tuple((k, (k + 1) % POINTS, (k + 3) % POINTS) for k in range(POINTS))
REFERENCE_VALUE = 40 + 2 + 431  # _queens(7), _labelings(), _closures()


def _queens(n: int) -> int:
    """Solutions of n queens, by backtracking over sets."""
    count = 0
    cols: set[int] = set()
    up: set[int] = set()
    down: set[int] = set()

    def place(row: int) -> None:
        nonlocal count
        if row == n:
            count += 1
            return
        for col in range(n):
            if col in cols or row - col in up or row + col in down:
                continue
            cols.add(col)
            up.add(row - col)
            down.add(row + col)
            place(row + 1)
            cols.remove(col)
            up.remove(row - col)
            down.remove(row + col)

    place(0)
    return count


def _labelings() -> int:
    """Labelings of POINTS points by 0..N-1 that satisfy CONSTRAINTS, found
    by backtracking in a dict within the first NODES nodes of the search."""
    label: dict[int, int] = {}
    watch: dict[int, list] = {}
    for con in CONSTRAINTS:
        for v in con:
            watch.setdefault(v, []).append(con)
    budget = NODES

    def fits(v: int) -> bool:
        return all(a not in label or b not in label or c not in label
                   or TABLE[label[a]][label[b]] == label[c] for a, b, c in watch[v])

    def extend(v: int) -> int:
        nonlocal budget
        budget -= 1
        if v == POINTS:
            return 1
        found = 0
        for x in range(N):
            if budget <= 0:
                break
            label[v] = x
            if fits(v):
                found += extend(v + 1)
            del label[v]
        return found

    return extend(0)


def _closures() -> int:
    """Total size of the closures of all pairs of points under TABLE."""
    total = 0
    for a in range(N):
        for b in range(a, N):
            seen, todo = {a, b}, [a, b]
            while todo:
                x = todo.pop()
                for y in tuple(seen):
                    for z in (TABLE[x][y], TABLE[y][x]):
                        if z not in seen:
                            seen.add(z)
                            todo.append(z)
            total += len(seen)
    return total


def reference() -> int:
    """The reference kernel: fixed pure-Python code of the kinds the
    biracks commands run (backtracking over sets, a labeling search in a
    dict, closures under a table), but none of their code.  Its time tracks
    the machine's speed of the moment; run.py scales latencies by it.  Three
    kinds of code, so that a phase of the host that slows one kind more than
    another moves the kernel as it moves a mix."""
    return _queens(7) + _labelings() + _closures()


def cpu_seconds() -> float:
    """CPU time of this process, all its threads and its waited-for children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def time_reference() -> float:
    """CPU seconds of one run of the reference kernel."""
    start = cpu_seconds()
    if reference() != REFERENCE_VALUE:
        raise RuntimeError("reference kernel gave a wrong value")
    return cpu_seconds() - start


SETUP_REFS = 4  # kernel timings before the imports and after them
SAMPLE_INTERVAL_S = 0.05


class Sampler:
    """Times the reference kernel every `interval` seconds of wall time from
    a SIGALRM handler, so that long requests are sampled while they run.
    `samples` holds [wall seconds since `origin`, kernel CPU seconds].  The
    handler's time in all, `paused_cpu` in CPU and `paused_ns` in wall time,
    is left out of latencies and spans (clock_ns is perf_counter_ns less
    the wall time)."""

    def __init__(self, origin: float, interval: float):
        self.origin, self.interval = origin, interval
        self.samples: list[list[float]] = []
        self.paused_cpu = 0.0
        self.paused_ns = 0

    def clock_ns(self) -> int:
        return time.perf_counter_ns() - self.paused_ns

    def _tick(self, signum, frame) -> None:
        enter, enter_cpu = time.perf_counter_ns(), cpu_seconds()
        try:
            self.samples.append([enter / 1e9 - self.origin, time_reference()])
        except RecursionError:  # the request is near the recursion limit: no sample
            pass
        self.paused_cpu += cpu_seconds() - enter_cpu
        self.paused_ns += time.perf_counter_ns() - enter

    def __enter__(self) -> "Sampler":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def serve(spec: dict) -> dict:
    from biracks import cli

    start = time.perf_counter()
    sampler = Sampler(start, SAMPLE_INTERVAL_S)
    main = cli.main
    tracer = None
    if spec["trace"]:
        from spans import Tracer

        tracer = Tracer(sampler.clock_ns)
        tracer.install()
        main = tracer.wrap("cli.main", cli.main)

    def call(argv):
        """(latency, wall latency, begin, end, rc, error, stdout, stderr);
        begin and end in wall seconds since the start of the loop."""
        out, err = io.StringIO(), io.StringIO()
        error = None
        paused_cpu, paused_ns = sampler.paused_cpu, sampler.paused_ns
        begin, begin_cpu = time.perf_counter_ns(), cpu_seconds()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(argv)
        except Exception as exc:  # a failure escaping cli.main is counted, not fatal
            rc, error = None, f"{type(exc).__name__}: {str(exc)[:200]}"
        end, end_cpu = time.perf_counter_ns(), cpu_seconds()
        latency = end_cpu - begin_cpu - (sampler.paused_cpu - paused_cpu)
        wall = (end - begin - (sampler.paused_ns - paused_ns)) / 1e9
        return (latency, wall, begin / 1e9 - start, end / 1e9 - start, rc, error,
                out.getvalue(), err.getvalue())

    requests, order = spec["requests"], spec["order"]
    records, outputs, errors = [], {}, {}
    output_bytes = passes = 0
    done = False
    with sampler:
        while not done:
            for i in order:
                argv = requests[i]
                if tracer is not None:
                    tracer.request = len(records)
                latency, wall, begin, end, rc, error, out, err = call(argv)
                records.append([i, latency, rc, error, hashlib.sha256(out.encode()).hexdigest(),
                                begin, end, wall])
                outputs.setdefault(i, out)
                if err:
                    errors.setdefault(i, err[:500])
                output_bytes += len(out.encode())
                late = time.perf_counter() - start >= spec["seconds"]
                if late and passes and not spec["whole_passes"]:
                    done = True
                    break
            else:
                passes += 1
                done = time.perf_counter() - start >= spec["seconds"]
    elapsed = time.perf_counter() - start
    result = {
        "passes": passes,
        "elapsed": elapsed,
        "records": records,
        "samples": sampler.samples,
        "outputs": outputs,
        "stderr": errors,
        "output_bytes": output_bytes,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if spec.get("probe"):
        latency, _, _, _, rc, error, out, _ = call(spec["probe"])
        result["probe"] = {"rc": rc, "error": error, "stdout": out, "latency": latency}
    if tracer is not None:
        tracer.write(spec["spans"])
    return result


def main() -> int:
    start = time.perf_counter()
    before = [time_reference() for _ in range(SETUP_REFS)]
    spent = time.perf_counter() - start
    sys.path.insert(0, sys.argv[1])
    import biracks  # noqa: F401  (set-up: what every request needs imported)
    import biracks.cli  # noqa: F401

    print("ready " + json.dumps({"refs": before, "wall": spent}), flush=True)
    print(json.dumps([time_reference() for _ in range(SETUP_REFS)]), flush=True)
    line = sys.stdin.readline().strip()
    if not line:
        return 0
    with open(line, encoding="utf-8") as fh:
        spec = json.load(fh)
    result = serve(spec)
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
