#!/usr/bin/env python3
"""Benchmark of the biracks command line, run in-process as a closed loop.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 bench/run.py --record-digests

Run from the repository root.  One client in one fresh worker process
(bench/worker.py) sends each CLI request only after the previous one
returned.  A latency is the request's CPU time, scaled by timings of a
fixed reference kernel taken around it (worker.py), so that it reads as
time at one fixed machine speed.  Inputs come from bench/gen.py and the
seed; every output is checked (bench/checks.py, and at seed 0 the stdout
digests recorded in bench/digests.json).  The last line of stdout is one JSON object with
keys correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics of bench/spans.py with --trace 1.  The
traced run measures half its time untraced and half traced, and reports
the ratio of their request rates as trace.overhead.

--record-digests runs one pass of every workload at seed 0 and rewrites
bench/digests.json; do that only in a change that alters CLI output on
purpose.  bench/README.md describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC, DATA = ROOT / "src", ROOT / "data"
WORK = ROOT / ".bench_work"
DIGESTS = HERE / "digests.json"
SETUP_SAMPLES = 16  # besides the measured worker's own: half before it, half after
# The reference kernel's (worker.reference) median time on the reference
# machine.  Every time a run reports is scaled by REFERENCE_S over the
# kernel's time measured next to it, so that it reads as seconds at the
# reference machine's median speed whatever speed the shared host runs at.
REFERENCE_S = 0.003
WORKER_TIMEOUT_S = 80  # two workers of a traced run stay within 180 s
TAIL_BEYOND = 10


def provenance() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            commit = "unknown"
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": sys.version.split()[0],
            "commit": commit}


def request_key(argv, workdir: Path) -> str:
    """Identity of a request: its argv and the content of every file it names."""
    files = {a: hashlib.sha256((workdir / a).read_bytes()).hexdigest()
             for a in argv if (workdir / a).is_file()}
    return hashlib.sha256(json.dumps([argv, files], sort_keys=True).encode()).hexdigest()


SAMPLE_WINDOW_S = 0.3  # kernel samples this close to a request scale it
MIN_SAMPLES = 3


def scale(refs) -> float:
    """Factor that turns a time measured amid these reference-kernel
    timings into seconds at the reference machine's median speed."""
    return REFERENCE_S / statistics.median(refs)


class Worker:
    """A fresh worker process.  `setup_wall_s` is its spawn-to-ready wall
    time less the time it spent timing the kernel before the imports;
    `setup_s` is that time scaled by those timings and the ones made after
    the imports."""

    def __init__(self, workdir: Path):
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), str(SRC)], cwd=workdir,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        ready = self.proc.stdout.readline()
        wall = time.perf_counter() - start
        if not ready.startswith("ready "):
            self.close()
            raise RuntimeError("worker did not start")
        before = json.loads(ready.split(" ", 1)[1])
        after = json.loads(self.proc.stdout.readline())
        self.setup_wall_s = wall - before["wall"]
        before = before["refs"]
        # The first timing in a fresh interpreter runs cold; it is left out.
        self.setup_s = self.setup_wall_s * scale(before[1:] + after)

    def run(self, spec_path: Path) -> None:
        self.close(f"{spec_path}\n")

    def close(self, line: str = "") -> None:
        """Send `line` (empty: exit after set-up) and wait for the worker."""
        try:
            self.proc.communicate(line, timeout=WORKER_TIMEOUT_S)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.communicate()
        if self.proc.returncode != 0:
            raise RuntimeError(f"worker exited with {self.proc.returncode}")


def setup_times(workdir: Path, count: int) -> list[tuple[float, float]]:
    """(scaled, unscaled) set-up seconds of `count` fresh workers that exit at once."""
    times = []
    for _ in range(count):
        worker = Worker(workdir)
        times.append((worker.setup_s, worker.setup_wall_s))
        worker.close()
    return times


def serve(workdir: Path, requests, seconds: float, trace: bool, probe=None, tag="run",
          order=None):
    """One worker runs the request list, in `order` (default: as listed),
    pass after pass; returns (result, (scaled, unscaled) set-up seconds).  The traced worker runs
    whole passes, so that its counts per pass are exact."""
    spec = {"requests": [r.argv for r in requests], "seconds": seconds, "trace": trace,
            "whole_passes": trace,
            "order": order or list(range(len(requests))),
            "probe": probe.argv if probe else None,
            "result": str(workdir / f"{tag}.result.json"),
            "spans": str(workdir / f"{tag}.spans.tsv")}
    spec_path = workdir / f"{tag}.spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    worker = Worker(workdir)
    worker.run(spec_path)
    result = json.loads(Path(spec["result"]).read_text(encoding="utf-8"))
    return result, (worker.setup_s, worker.setup_wall_s)


def failures(result, requests, workdir: Path, digests: dict, required: bool) -> dict[int, str]:
    """{record index: reason} for every failed request of a worker result;
    `required`: every request must have a recorded stdout digest."""
    from checks import Checker

    outputs = {int(i): out for i, out in result["outputs"].items()}
    wrong = Checker(workdir, requests).check_all(outputs)
    for i, req in enumerate(requests):
        want = digests.get(request_key(req.argv, workdir))
        got = hashlib.sha256(outputs.get(i, "").encode()).hexdigest()
        if want is None and required:
            wrong.setdefault(i, "no stdout digest recorded for this seed-0 request")
        elif want is not None and want != got:
            wrong.setdefault(i, "stdout differs from the digest recorded at the seed commit")
    first = {}
    failed = {}
    for k, (i, _, rc, error, digest, *_) in enumerate(result["records"]):
        first.setdefault(i, digest)
        if error or rc != 0:
            failed[k] = error or f"exit code {rc}"
        elif str(i) in result["stderr"]:
            failed[k] = "stderr: " + result["stderr"][str(i)].strip()
        elif digest != first[i]:
            failed[k] = "a repetition printed different output"
        elif i in wrong:
            failed[k] = wrong[i]
    return failed


def per_entry(result, scaled: bool = True) -> dict[int, list[float]]:
    """{request index: its latencies (CPU seconds)}, one per pass that
    reached it, each scaled by the reference-kernel samples taken while it
    ran and within SAMPLE_WINDOW_S before and after it, at least
    MIN_SAMPLES of them (or as measured, unless `scaled`)."""
    at = [t for t, _ in result["samples"]]
    took = [d for _, d in result["samples"]]
    latencies: dict[int, list[float]] = {}
    for i, latency, _, _, _, begin, end, _ in result["records"]:
        lo = bisect.bisect_left(at, begin - SAMPLE_WINDOW_S)
        hi = bisect.bisect_right(at, end + SAMPLE_WINDOW_S)
        lo, hi = min(lo, max(hi - MIN_SAMPLES, 0)), max(hi, min(lo + MIN_SAMPLES, len(at)))
        factor = scale(took[lo:hi]) if scaled else 1.0
        latencies.setdefault(i, []).append(latency * factor)
    return latencies


def request_rate(latencies: dict[int, list[float]]) -> float:
    """Requests per second of the list's mix: the list's length over the sum
    of each request's mean latency, so that requests of the partial last
    pass count for no more than their share of the mix."""
    return len(latencies) / sum(statistics.fmean(v) for v in latencies.values())


def timing(result, setups, scaled: bool = True) -> dict:
    """The time metrics, scaled by the reference kernel (or as measured,
    unless `scaled`).  One latency per request of the list, its median over the
    passes: the percentiles then point at the same requests of the list
    however many passes fit in a run."""
    latencies = per_entry(result, scaled)
    lat = sorted(statistics.median(v) for v in latencies.values())
    tail = lat[max(len(lat) - TAIL_BEYOND - 1, 0)]
    return {
        "requests_per_s": (request_rate(latencies), "1/s"),
        "request_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "request_tail_ms": (tail * 1e3, "ms"),
        "setup_s": (statistics.median(s[0] if scaled else s[1] for s in setups), "s"),
    }


def end_to_end(result, failed, setups) -> dict:
    n = len(result["records"])
    return dict(timing(result, setups),
                peak_rss_mb=(result["maxrss_kb"] / 1024, "MB"),
                ok_ratio=((n - len(failed)) / n, "ratio"))


def probe_line(probe, result) -> str:
    """The known-defect probe runs once after the timed loop, outside the counts."""
    p = result["probe"]
    if p["error"] or p["rc"] != 0:
        return f"known defect {probe.meta['name']}: {p['error'] or 'exit code ' + str(p['rc'])}"
    return f"known defect {probe.meta['name']}: no longer fails (stdout {p['stdout'].strip()!r})"


def run(args) -> int:
    import gen

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        requests, probe, record = gen.build(args.workload, args.seed, workdir, DATA)
        base = (workdir / "sample_links.txt").read_text(encoding="utf-8")
        if base != (DATA / "sample_links.txt").read_text(encoding="utf-8"):
            raise RuntimeError("generated sample links differ from data/sample_links.txt")
        digests = json.loads(DIGESTS.read_text(encoding="utf-8"))
        print(f"biracks benchmark: workload={args.workload} seed={args.seed} "
              f"seconds={args.seconds} trace={args.trace}")
        print("machine: " + json.dumps(provenance()))
        print("inputs: " + json.dumps(record, sort_keys=True))
        # A seeded order spreads requests of similar cost over the pass, so
        # that the percentiles sample the machine's speed over the whole run.
        order = list(range(len(requests)))
        random.Random(args.seed).shuffle(order)
        setups = setup_times(workdir, SETUP_SAMPLES // 2)
        seconds = args.seconds / 2 if args.trace else args.seconds
        result, setup = serve(workdir, requests, seconds, False, probe, order=order)
        setups += [setup] + setup_times(workdir, SETUP_SAMPLES // 2)
        failed = failures(result, requests, workdir, digests, args.seed == 0)
        attempted = len(result["records"])
        if args.trace:
            from spans import summarize

            traced, _ = serve(workdir, requests, seconds, True, tag="trace", order=order)
            failed_t = failures(traced, requests, workdir, digests, args.seed == 0)
            metrics = summarize(workdir / "trace.spans.tsv", traced["passes"])
            overhead = request_rate(per_entry(result)) / request_rate(per_entry(traced))
            metrics["trace.overhead"] = (overhead, "ratio")
            metrics["cli.output_bytes"] = (traced["output_bytes"] / traced["passes"], "bytes")
            failed.update((attempted + k, v) for k, v in failed_t.items())
            attempted += len(traced["records"])
        else:
            metrics = end_to_end(result, failed, setups)
        n, listed = len(result["records"]), len(requests)
        print(f"requests: {n} in {result['elapsed']:.2f} s, {result['passes']} whole "
              f"pass(es) of {listed} and {n - result['passes'] * listed} more; "
              f"p50 and tail are over the {listed} requests of "
              f"the list, each its median over the passes; tail = "
              f"p{100 * (listed - TAIL_BEYOND) / listed:.1f}, the latency with "
              f"{TAIL_BEYOND} of {listed} samples beyond it")
        if probe:
            print(probe_line(probe, result))
        for k, reason in sorted(failed.items())[:20]:
            print(f"FAILED request #{k}: {reason}", file=sys.stderr)
        took = [d for _, d in result["samples"]]
        stalls = sorted(r[7] / r[1] for r in result["records"] if r[1] > 0)
        print(f"reference kernel: median {statistics.median(took) * 1e3:.3f} ms over "
              f"{len(took)} samples (REFERENCE_S {REFERENCE_S * 1e3:g} ms); as measured, "
              "unscaled: " + ", ".join(f"{name} = {value:.6g} {unit}" for name, (value, unit)
                                        in timing(result, setups, scaled=False).items()))
        print(f"wall time over CPU time of a request: median {statistics.median(stalls):.4f}, "
              f"max {stalls[-1]:.3f}")
        for name, (value, unit) in metrics.items():
            print(f"  {name} = {value:.6g} {unit}")
        print(json.dumps({
            "correct": not failed,
            "attempted": attempted,
            "failed": len(failed),
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other run is using it


def record_digests() -> int:
    import gen

    digests = {}
    for workload in gen.WORKLOADS:
        workdir = WORK / f"record-{workload}-{os.getpid()}"
        workdir.mkdir(parents=True)
        try:
            requests, _, _ = gen.build(workload, 0, workdir, DATA)
            result, _ = serve(workdir, requests, 0, False)
            failed = failures(result, requests, workdir, {}, False)
            if failed:
                print(f"{workload}: not recorded, {len(failed)} request(s) fail:", file=sys.stderr)
                for k, reason in sorted(failed.items()):
                    print(f"  #{k} {requests[result['records'][k][0]].argv}: {reason}",
                          file=sys.stderr)
                return 1
            for i, req in enumerate(requests):
                out = result["outputs"][str(i)]
                digests[request_key(req.argv, workdir)] = hashlib.sha256(out.encode()).hexdigest()
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(digests)} digests in {DIGESTS.relative_to(ROOT)}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args()
    if not (SRC / "biracks" / "cli.py").is_file() or not DATA.is_dir():
        print(f"error: {ROOT} has no src/biracks or data/; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.record_digests:
        return record_digests()
    import gen

    if args.workload not in gen.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(gen.WORKLOADS)}")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
