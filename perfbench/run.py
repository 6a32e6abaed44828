"""triline benchmark: real CLI jobs in fresh processes, closed loop, one client.

    python3 perfbench/run.py --workload expand-k5 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a checkout.  The program is imported from ``src/`` of
that checkout; nothing is installed.  A run measures set-up (a fresh
interpreter plus ``import triline``) several times, then starts one job
after the other until ``--seconds`` have passed (at least one job), checks
each job's output, and reports medians over the jobs.  With ``--trace 1`` it
then runs the job once more under ``tracer.py`` and reports the per-layer
metrics instead; end-to-end numbers always come from untraced jobs.

The last line of standard output is the result
``{"correct", "attempted", "failed", "metrics"}``; the line before it is the
full record: provenance, every sample, hashes and problems.  A job fails on
a nonzero exit code, a failed output check, or a machine output whose
sha256 differs from the first one this checkout's source produced for the
same workload (determinism guard; the hashes live in ``.bench_out/``).
``--selftest`` runs all workloads at k <= 3, both modes, and checks the
metric names against ``BENCHMARK.json`` and the trace against its schema.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_out"
TRACER = Path(__file__).resolve().parent / "tracer.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
ENTRY = "import sys; from triline.cli import main; sys.exit(main(sys.argv[1:]))"
PROBE = ("import sys, numpy, triline; "
         "print(triline.__file__); print(numpy.__version__)")
SETUP_REPS = 9
RUN_BUDGET_S = 170.0   # a run must end within 180 s


class BenchError(Exception):
    """The benchmark cannot run here (program missing or not importable)."""


@dataclass
class Job:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    digest: str = ""
    problems: list[str] = field(default_factory=list)


def _env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(SRC))


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _wait(proc: subprocess.Popen, timeout: float):
    """Reap ``proc`` with its rusage; kill its process group on timeout."""
    timer = threading.Timer(timeout, _kill_group, (proc.pid,))
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        _kill_group(proc.pid)
        proc.wait()
        raise
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage


def run_job(wl: workloads.Workload, out: Path, timeout: float,
            spans: Path | None = None) -> Job:
    """Run every step of one job in a fresh process; traced if ``spans``."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    job = Job()
    digest = hashlib.sha256()
    t0 = perf_counter()
    for i, step in enumerate(wl.steps):
        argv = [a.replace("{out}", str(out)) for a in step]
        if spans is None:
            cmd = [sys.executable, "-c", ENTRY, *argv]
        else:
            cmd = [sys.executable, str(TRACER), str(spans / f"step{i}.json"),
                   *argv]
        stdout, stderr = out / f"step{i}.stdout", out / f"step{i}.stderr"
        with stdout.open("wb") as fo, stderr.open("wb") as fe:
            proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdout=fo,
                                    stderr=fe, start_new_session=True)
            usage = _wait(proc, max(1.0, timeout - (perf_counter() - t0)))
        job.cpu_s += usage.ru_utime + usage.ru_stime
        job.peak_rss_mb = max(job.peak_rss_mb, usage.ru_maxrss / 1024)
        digest.update(f"{i}:{proc.returncode}:".encode())
        digest.update(stdout.read_bytes())
        if "--out" in argv:
            target = Path(argv[argv.index("--out") + 1])
            digest.update(target.read_bytes() if target.exists() else b"")
        if proc.returncode != 0:
            tail = stderr.read_text(errors="replace")[-400:]
            job.problems.append(f"{' '.join(step)} exited {proc.returncode}: {tail}")
            break
    job.wall_s = perf_counter() - t0
    job.digest = digest.hexdigest()
    if not job.problems:
        job.problems.extend(wl.check(out))
    return job


def _source_fingerprint() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _guard_determinism(wl: workloads.Workload, jobs: list[Job]) -> None:
    """Fail each job whose output hash differs from this source's first one."""
    key = hashlib.sha256(
        (_source_fingerprint() + json.dumps(wl.steps)).encode()).hexdigest()
    store = WORK / "digests.json"
    seen = json.loads(store.read_text()) if store.exists() else {}
    first = seen.setdefault(key, jobs[0].digest)
    for job in jobs:
        if job.digest != first:
            job.problems.append(f"output sha256 {job.digest} differs from "
                                f"{first} of an earlier job of {wl.name}")
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps(seen, indent=1, sort_keys=True))
    os.replace(tmp, store)


def _git_commit() -> str:
    """HEAD of the checkout's own .git directory, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def probe() -> dict:
    """Import the checkout's triline once (fills the bytecode cache)."""
    if not (SRC / "triline" / "cli.py").is_file():
        raise BenchError(f"no triline sources under {SRC}")
    res = subprocess.run([sys.executable, "-c", PROBE], cwd=ROOT, env=_env(),
                         capture_output=True, text=True, timeout=60)
    lines = res.stdout.split()
    if res.returncode != 0 or len(lines) != 2:
        raise BenchError(f"cannot import triline: {res.stderr.strip()[-400:]}")
    if not Path(lines[0]).resolve().is_relative_to(SRC):
        raise BenchError(f"triline imported from {lines[0]}, not {SRC}")
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": lines[1],
        "machine": platform.machine(),
        "git_commit": _git_commit(),
        "source_sha256": _source_fingerprint(),
    }


def setup_time() -> float:
    """Wall time of a fresh interpreter that imports triline and exits."""
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", "import triline"], cwd=ROOT,
                            env=_env(), start_new_session=True)
    _wait(proc, 60.0)   # blocking wait4: subprocess's timed wait polls
    elapsed = perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"import triline exited {proc.returncode}")
    return elapsed


def _metric_block(kind: str, values: dict[str, float]) -> dict:
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in SPEC[kind]}


def run(name: str, seed: int, seconds: float, trace: bool,
        selftest: bool = False) -> tuple[dict, dict]:
    """One benchmark run; returns (record, result)."""
    started = perf_counter()
    wl = workloads.build(selftest)[name]
    record = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "selftest": selftest,
              "argv": [list(s) for s in wl.steps], "provenance": probe()}
    setup = [setup_time() for _ in range(3 if selftest else SETUP_REPS)]
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        tmp = Path(tmp)
        jobs: list[Job] = []
        t0 = perf_counter()
        while not jobs or perf_counter() - t0 < seconds:
            left = RUN_BUDGET_S - (perf_counter() - started)
            jobs.append(run_job(wl, tmp / "out", left))
            if jobs[-1].problems:
                break
        traced = None
        if trace and not jobs[-1].problems:
            spans = tmp / "spans"
            spans.mkdir()
            traced = run_job(wl, tmp / "out",
                             RUN_BUDGET_S - (perf_counter() - started), spans=spans)
            if not traced.problems:
                layers, record["missing_hooks"] = tracer.layer_metrics(
                    sorted(spans.glob("step*.json")))
            span_copy = WORK / f"spans-{name}{'-selftest' if selftest else ''}"
            shutil.rmtree(span_copy, ignore_errors=True)
            shutil.copytree(spans, span_copy)
    every = jobs + ([traced] if traced else [])
    _guard_determinism(wl, every)
    walls = [j.wall_s for j in jobs]
    samples = {
        "wall_s": walls,
        "setup_s": setup,
        "cpu_s": [j.cpu_s for j in jobs],
        "peak_rss_mb": [j.peak_rss_mb for j in jobs],
        "pairings_per_s": [wl.pairings / w for w in walls],
    }
    record.update(samples=samples, sample_count=len(jobs),
                  digests=[j.digest for j in every],
                  problems=[p for j in every for p in j.problems])
    failed = sum(1 for j in every if j.problems)
    if not trace:
        metrics = _metric_block(
            "end_to_end", {k: statistics.median(v) for k, v in samples.items()})
    elif failed == 0:
        record["traced_wall_s"] = traced.wall_s
        layers["trace.overhead_s"] = traced.wall_s - statistics.median(walls)
        metrics = _metric_block("per_layer", layers)
    else:
        metrics = {}   # a job failed; no layer numbers to trust
    result = {"correct": failed == 0, "attempted": len(every), "failed": failed,
              "metrics": metrics}
    return record, result


# Layers each workload must reach in the trace; a hook that stops seeing
# calls (a renamed function, say) shows up here as a zero.
REACHED = {
    "expand-k5": ("census.calls", "series.assemble.self_s",
                  "series.formal_log.s", "series.planar_counts.self_s",
                  "cli.emit.s"),
    "verify-k5": ("census.calls", "series.double_limit.s",
                  "diagrams.genus.calls", "oracle.covariance.builds",
                  "oracle.moment.calls", "oracle.richardson.calls",
                  "gaussian.wick_moment.calls", "gaussian.propagator.calls"),
    "knots-k4": ("diagrams.enumerate.rows", "diagrams.genus.calls",
                 "knots.gauss_code.s", "knots.canonical.calls",
                 "knots.reduce_R1.s", "cli.emit.s"),
}


def selftest() -> list[str]:
    """Every workload at k <= 3 in both modes; returns the problems found."""
    problems = []
    for name in workloads.build(selftest=True):
        for trace in (False, True):
            record, result = run(name, seed=0, seconds=0, trace=trace,
                                 selftest=True)
            tag = f"{name} trace={int(trace)}"
            kind = "per_layer" if trace else "end_to_end"
            want = {m["name"] for m in SPEC[kind]}
            print(f"selftest {tag}: {json.dumps(result)}", flush=True)
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(result)}")
            if not result["correct"]:
                problems.append(f"{tag}: {record['problems']}")
                continue
            if set(result["metrics"]) != want:
                problems.append(f"{tag}: metric names differ from BENCHMARK.json "
                                f"by {sorted(set(result['metrics']) ^ want)}")
            if trace:
                problems += [f"{tag}: missing hook {h}"
                             for h in record.get("missing_hooks", [])]
                problems += [f"{tag}: {m} is 0" for m in REACHED[name]
                             if not result["metrics"].get(m, {}).get("value")]
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.build()))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    try:
        if args.selftest:
            problems = selftest()
            for line in problems:
                print(f"FAIL {line}", file=sys.stderr)
            print("selftest:", "FAILED" if problems else "ok")
            return 1 if problems else 0
        if not args.workload:
            parser.error("--workload is required")
        record, result = run(args.workload, args.seed, args.seconds,
                             bool(args.trace))
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
