#!/usr/bin/env python3
"""Benchmark of the extraction pipeline: one process, one local Ray session.

    python3 perfbench/run.py --workload web_pages --seed 1 --seconds 10 --trace 0

Run from the repository root. One run:

1. generates the workload's input from ``--seed`` and writes it to
   Parquet (``perfbench/workloads.py``); nothing here is timed;
2. sets up ``SETUPS`` times: ``ray.init(num_cpus=4)`` plus a warm-up
   extraction of a small fixed input; ``setup_s`` is the median;
3. runs jobs back to back, one at a time (closed loop), until
   ``--seconds`` have passed and at least ``MIN_JOBS`` ran; Ray Data's
   ``Dataset.stats()`` of each job gives operator wall, CPU and peak heap;
   the end-to-end metrics are medians over the jobs;
4. shuts Ray down and waits until every process it started has ended
   (this process is their subreaper, so orphans are reaped too); then
   extracts the same input in-process on one thread, with every layer
   traced (``perfbench/trace.py``);
5. checks every job's output against the generator's expected mix and
   the traced pass (``perfbench/check.py``).

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``, the per-layer ones with ``--trace 1``). The exit code is 1
when the output check fails, 2 when the program under test is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import json
import os
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK_DIR = os.path.join(ROOT, ".perfbench_work")

#: the whole box: ``nproc --all`` is 4 on the reference machine. Below 2
#: cpus the autosized actor pool holds every cpu and starves the read.
NUM_CPUS = 4
#: set-ups per run; two, because each costs a sixth of a run
SETUPS = 2
#: timed jobs per run at least; two keep a run within 30-50 s on a 4-cpu box
MIN_JOBS = 2
OBJECT_STORE_BYTES = 512 * 1024 * 1024

STATUSES = ("ok", "low_confidence", "bad_file", "parse_error")
#: per-layer metrics that come neither from the spans nor from Ray's stats
PER_LAYER_EXTRA = (
    "trace.overhead_ratio", "readers.real_ocr.init_s", "fail_rate",
    *(f"pipeline.kernel.rows.{s}" for s in STATUSES),
)

END_TO_END = {
    "docs_per_s": "docs/s",
    "cpu_ms_per_doc": "ms",
    "setup_s": "s",
    "peak_heap_mb": "MiB",
}


def per_layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith(("ms_per_doc", "ms_per_page")):
        return "ms"
    if name.endswith(("wall_s", "init_s")):
        return "s"
    if name.endswith("peak_heap_mb"):
        return "MiB"
    if name.endswith(("cpu_share", "fail_rate", "overhead_ratio")):
        return "ratio"
    return "count"


# ------------------------------------------------------------------ Ray jobs


@dataclass
class JobResult:
    wall_s: float
    rows: list
    ops: List[tuple] = field(default_factory=list)  # (operator name, wall s, cpu s, peak heap MiB)
    shard_walls: List[float] = field(default_factory=list)
    shards_done: int = 0
    shards_skipped: int = 0

    def op_sum(self, col: int, pick: Optional[Callable[[str], bool]] = None) -> float:
        return sum(op[col] for op in self.ops if pick is None or pick(op[0]))


def _is_read(op: str) -> bool:
    return op.startswith("Read")


def _is_kernel(op: str) -> bool:
    return "ExtractKernel" in op


def _is_write(op: str) -> bool:
    return op.startswith("Write")


def operator_stats(ds) -> List[tuple]:
    """(name, wall s, cpu s, peak heap MiB) per operator of an executed Dataset."""
    target = ds._write_ds if getattr(ds, "_write_ds", None) is not None else ds
    out, todo = [], [target._plan.stats().to_summary()]
    while todo:
        summary = todo.pop()
        todo.extend(summary.parents)
        for op in summary.operators_stats:
            out.append((op.operator_name, float(op.time_total_s or 0.0),
                        float(op.cpu_time.get("sum", 0.0)), float(op.memory.get("max", 0.0))))
    return out


@contextlib.contextmanager
def captured_datasets() -> Iterator[list]:
    """Datasets that ``run_extract_resumable`` builds, for their stats."""
    from dedoc_ray.pipeline import extract

    built: list = []
    original = extract.extract_pages

    def recording(*args, **kwargs):
        ds = original(*args, **kwargs)
        built.append(ds)
        return ds

    extract.extract_pages = recording
    try:
        yield built
    finally:
        extract.extract_pages = original


def count_job(paths: List[str], out_dir: str) -> JobResult:
    """``extract_pages`` collected to this process, no write; the output is
    digested after the clock stops, so no benchmark work is timed."""
    import ray.data as rd

    from dedoc_ray.pipeline.extract import extract_pages
    from perfbench.check import row_digests, rows_of

    t0 = time.perf_counter()
    ds = extract_pages(rd.read_parquet(paths))
    batches = list(ds.iter_batches(batch_size=None, batch_format="pyarrow"))
    wall = time.perf_counter() - t0
    rows = [row for batch in batches for row in rows_of(row_digests(batch))]
    return JobResult(wall_s=wall, rows=rows, ops=operator_stats(ds))


def write_job(paths: List[str], out_dir: str) -> JobResult:
    """The production job shape: ``run_extract_resumable`` over every shard."""
    import pyarrow.parquet as pq

    from dedoc_ray.pipeline.extract import run_extract_resumable
    from perfbench.check import row_digests, rows_of

    with captured_datasets() as built:
        t0 = time.perf_counter()
        totals = run_extract_resumable(paths, out_dir)
        wall = time.perf_counter() - t0
    res = JobResult(wall_s=wall, rows=[],
                    shards_done=totals["shards_done"], shards_skipped=totals["shards_skipped"])
    for ds in built:
        res.ops.extend(operator_stats(ds))
    for path in sorted(glob.glob(os.path.join(out_dir, "_manifests", "*.json"))):
        with open(path) as f:
            manifest = json.load(f)
        res.shard_walls.append(float(manifest["wall_sec"]))
        table = pq.read_table(os.path.join(out_dir, manifest["shard"]),
                              columns=["url", "status", "format", "extracted_text"])
        res.rows.extend(rows_of(row_digests(table)))
    shutil.rmtree(out_dir, ignore_errors=True)
    return res


JOBS = {"web_pages": write_job, "pdf_docs": count_job, "scan_pages": count_job}


def ray_init() -> None:
    import ray

    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False, log_to_driver=False,
             object_store_memory=OBJECT_STORE_BYTES)


def become_subreaper() -> None:
    """Have orphaned descendants (Ray workers that outlive their raylet)
    reparented to this process, so ``reap_descendants`` can wait for them."""
    import ctypes

    PR_SET_CHILD_SUBREAPER = 36
    with contextlib.suppress(OSError, AttributeError):
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)


def descendants() -> List[int]:
    """Pids below this process, zombies included, from ``/proc``."""
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                fields = f.read().rpartition(")")[2].split()
        except OSError:
            continue
        children.setdefault(int(fields[1]), []).append(int(entry))
    out, todo = [], [os.getpid()]
    while todo:
        kids = children.get(todo.pop(), [])
        out.extend(kids)
        todo.extend(kids)
    return out


def reap_descendants(grace_s: float = 3.0, limit_s: float = 60.0) -> None:
    """Wait until every process this one started has ended and been
    reaped; kill what is still alive after ``grace_s``."""
    import signal

    t0 = time.monotonic()
    while True:
        with contextlib.suppress(ChildProcessError):
            while os.waitpid(-1, os.WNOHANG)[0] > 0:
                pass
        alive = descendants()
        if not alive:
            return
        waited = time.monotonic() - t0
        if waited > limit_s:
            raise RuntimeError(f"processes {alive} did not end")
        if waited > grace_s:
            for pid in alive:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
        time.sleep(0.05)


def ray_shutdown() -> None:
    import ray

    ray.shutdown()
    reap_descendants()


def timed_runs(job: Callable[[List[str], str], JobResult], paths: List[str], warm_paths: List[str],
               seconds: float, work: str) -> tuple:
    """(setup times, job results): ``SETUPS`` set-ups, each ``ray.init`` plus
    a warm-up extraction of ``warm_paths`` (the first job of a session
    starts Ray Data's own actors and pays worker-side imports); then jobs
    over ``paths`` until ``seconds`` pass and ``MIN_JOBS`` ran."""
    import ray.data as rd

    import dedoc_ray.pipeline.extract  # noqa: F401  (this process's imports stay out of set-up)

    ctx = rd.DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False
    os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    setups, jobs = [], []
    try:
        for i in range(SETUPS):
            t0 = time.perf_counter()
            ray_init()
            count_job(warm_paths, os.path.join(work, "warm"))
            setups.append(time.perf_counter() - t0)
            if i + 1 < SETUPS:
                ray_shutdown()
        t0 = time.perf_counter()
        while len(jobs) < MIN_JOBS or time.perf_counter() - t0 < seconds:
            jobs.append(job(paths, os.path.join(work, f"job{len(jobs)}")))
    finally:
        ray_shutdown()
    return setups, jobs


# ---------------------------------------------------------- single thread


def single_thread(paths: List[str], recorder=None) -> tuple:
    """(digest rows, kernel seconds) of an in-process pass, batch by batch
    as the actor pool sees them; traced when ``recorder`` is given."""
    import pyarrow.parquet as pq

    from dedoc_ray.pipeline.extract import DEFAULT_BATCH_SIZE
    from dedoc_ray.pipeline.kernel import ExtractKernel
    from perfbench.check import row_digests, rows_of
    from perfbench.trace import patched

    rows, secs = [], 0.0
    with patched(recorder) if recorder is not None else contextlib.nullcontext():
        kernel = ExtractKernel()
        for path in paths:
            table = pq.read_table(path)
            for off in range(0, table.num_rows, DEFAULT_BATCH_SIZE):
                batch = table.slice(off, DEFAULT_BATCH_SIZE)
                t0 = time.perf_counter()
                out = kernel(batch)
                secs += time.perf_counter() - t0
                rows.extend(rows_of(row_digests(out)))
    return rows, secs


# ------------------------------------------------------------------ metrics


def end_to_end(setups: List[float], jobs: List[JobResult], rows: int) -> Dict[str, float]:
    """Medians over the timed jobs of ``rows`` rows each (and over the
    set-ups for ``setup_s``)."""
    med = statistics.median
    return {
        "docs_per_s": med(rows / j.wall_s for j in jobs),
        "cpu_ms_per_doc": med(1e3 * j.op_sum(2) / rows for j in jobs),
        "setup_s": med(setups),
        "peak_heap_mb": med(max((op[3] for op in j.ops), default=0.0) for j in jobs),
    }


def ray_layers(jobs: List[JobResult]) -> Dict[str, float]:
    """``pipeline.extract.*`` from the timed runs' operator stats: medians over jobs."""
    def med(values) -> float:
        values = list(values)
        return statistics.median(values) if values else 0.0

    kernel_wall = sum(j.op_sum(1, _is_kernel) for j in jobs)
    kernel_cpu = sum(j.op_sum(2, _is_kernel) for j in jobs)
    return {
        "pipeline.extract.read.wall_s": med(j.op_sum(1, _is_read) for j in jobs),
        "pipeline.extract.kernel.wall_s": med(j.op_sum(1, _is_kernel) for j in jobs),
        "pipeline.extract.kernel.cpu_share": kernel_cpu / (kernel_wall * NUM_CPUS) if kernel_wall else 0.0,
        "pipeline.extract.kernel.peak_heap_mb": med(
            max((op[3] for op in j.ops if _is_kernel(op[0])), default=0.0) for j in jobs),
        "pipeline.extract.write.wall_s": med(j.op_sum(1, _is_write) for j in jobs),
        "pipeline.extract.shard.wall_s": med(w for j in jobs for w in j.shard_walls),
        "pipeline.extract.shards_done": med(j.shards_done for j in jobs),
        "pipeline.extract.shards_skipped": med(j.shards_skipped for j in jobs),
    }


def traced_layers(wl, recorder, untraced_s: float, traced_rows: list) -> Dict[str, float]:
    from perfbench.trace import layer_metrics
    from perfbench.workloads import PDF_GENERATORS

    generator_of = {url: e.generator for url, e in wl.expected.items()}
    m = layer_metrics(recorder, generator_of, PDF_GENERATORS)
    untraced_ms = 1e3 * untraced_s / wl.rows
    m["trace.overhead_ratio"] = m["pipeline.kernel.ms_per_doc"] / untraced_ms if untraced_ms else 0.0
    for status in STATUSES:
        m[f"pipeline.kernel.rows.{status}"] = float(sum(1 for r in traced_rows if r[1] == status))
    return m


def real_ocr_init_s(recorder) -> float:
    """One open-font recognizer build, when the traced pass used the recognizer."""
    if "readers.real_ocr.decode" not in recorder.names:
        return 0.0
    from dedoc_ray.readers.real_ocr import RealScanOCR
    from perfbench.trace import patched

    with patched(recorder):
        start = len(recorder)
        RealScanOCR()
    return recorder.duration(start)


def per_layer_names() -> List[str]:
    """Every metric a ``--trace 1`` run reports."""
    from perfbench.trace import SpanRecorder, layer_metrics
    from perfbench.workloads import PDF_GENERATORS

    return sorted({*layer_metrics(SpanRecorder(), {}, PDF_GENERATORS), *ray_layers([]), *PER_LAYER_EXTRA})


# --------------------------------------------------------------------- main


def run(workload: str, seed: int, seconds: float, trace: bool, work: str) -> tuple:
    from perfbench.check import check_output
    from perfbench.trace import SpanRecorder
    from perfbench.workloads import WORKLOADS, warmup_pages

    in_dir, warm_dir = os.path.join(work, "input"), os.path.join(work, "warmup")
    os.makedirs(in_dir)
    os.makedirs(warm_dir)
    wl = WORKLOADS[workload](seed, in_dir)
    warm = warmup_pages(warm_dir)
    print(json.dumps({"input": wl.summary()}), flush=True)

    setups, jobs = timed_runs(JOBS[workload], wl.paths, warm.paths, seconds, work)
    print(json.dumps({"setups_s": setups, "jobs": [
        {"wall_s": j.wall_s, "cpu_s": j.op_sum(2), "ops": j.ops} for j in jobs]}), flush=True)

    untraced_s = 0.0
    if trace:
        # one pass warms every lazy import, model and cache; the next,
        # untraced, is the base of trace.overhead_ratio
        single_thread(wl.paths)
        _, untraced_s = single_thread(wl.paths)
    recorder = SpanRecorder()
    ref_rows, _ = single_thread(wl.paths, recorder)

    ref_check = check_output(ref_rows, wl.expected)
    reference = {r[0]: (r[1], r[3]) for r in ref_rows}
    checks = [check_output(j.rows, wl.expected, reference) for j in jobs]
    attempted = wl.rows * (len(jobs) + 1)
    failed = ref_check.failed + sum(c.failed for c in checks)
    fail_rate = failed / attempted
    report = {
        "fail_rate": {"value": fail_rate, "unit": per_layer_unit("fail_rate")},
        "reference": vars(ref_check),
        "jobs": [vars(c) for c in checks],
        "digests_equal": all(c.digest == ref_check.digest for c in checks),
    }
    print(json.dumps({"check": report}, sort_keys=True), flush=True)
    correct = failed == 0 and report["digests_equal"]

    if not trace:
        metrics = end_to_end(setups, jobs, wl.rows)
        units = END_TO_END
    else:
        metrics = ray_layers(jobs)
        metrics.update(traced_layers(wl, recorder, untraced_s, ref_rows))
        metrics["readers.real_ocr.init_s"] = real_ocr_init_s(recorder)
        metrics["fail_rate"] = fail_rate
        if sorted(metrics) != per_layer_names():
            raise RuntimeError(f"per-layer metrics drifted from per_layer_names(): {sorted(metrics)}")
        units = {name: per_layer_unit(name) for name in metrics}
        spans_dir = os.path.join(WORK_DIR, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        recorder.dump(os.path.join(spans_dir, f"{workload}-seed{seed}.jsonl"))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in sorted(metrics.items())},
    }
    return result, correct


def main(argv: Optional[List[str]] = None) -> int:
    sys.path.insert(0, ROOT)
    from perfbench.workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "dedoc_ray", "__init__.py")):
        print(f"perfbench: no dedoc_ray package under {ROOT}", file=sys.stderr)
        return 2
    work = os.path.join(WORK_DIR, f"run-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    become_subreaper()
    try:
        result, correct = run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        reap_descendants()
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
