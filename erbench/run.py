"""Entity-resolution benchmark: the pages pipeline on three seeded workloads.

Usage (from any directory)::

    python3 erbench/run.py --workload dense --seed 1 --seconds 8 --trace 0

Each run prepares its inputs (cached per workload and seed, untimed), sets
up Ray and warms the pipeline twice (``setup_s`` is the median), then
calls the pipeline on the workload again and again until ``--seconds`` of
call time have passed. Every call gets a fresh output directory and is
checked against the serial oracle and the generator's truth (erbench/check).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced calls and prints the per-layer metrics instead
(erbench/tracing). The last line of stdout is the result object; Ray and
the engine log to stderr. A run detail file (input properties, every call,
spans) goes to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import uuid

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

import numpy as np  # noqa: E402

from erbench import workloads  # noqa: E402
from erbench.check import (  # noqa: E402
    Reference,
    bcubed_f1,
    check_run,
    read_approved,
    read_labels,
)
from erbench.tracing import LAYER_UNITS, Tracer, layer_metrics  # noqa: E402

PACKAGE = "entity_resolution_engine_ray"
SETUP_REPS = 2
# Ray's session directory goes inside the checkout; its socket paths must
# stay under the AF_UNIX limit (108 bytes), so use the default otherwise
RAY_TMP = os.path.join(ROOT, ".rt")
RAY_TMP_MAX_LEN = 40


def _process_tree() -> dict[int, int]:
    """{pid: CPU ticks (utime stime cutime cstime)} of this process and
    every live descendant: Ray's GCS, raylet and workers."""
    parent_of: dict[int, int] = {}
    ticks: dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                stat = f.read()
        except OSError:
            continue  # exited while listing
        fields = stat[stat.rfind(")") + 2 :].split()
        pid = int(entry)
        parent_of[pid] = int(fields[1])
        ticks[pid] = sum(int(x) for x in fields[11:15])
    children: dict[int, list[int]] = {}
    for pid, ppid in parent_of.items():
        children.setdefault(ppid, []).append(pid)
    tree, todo = {}, [os.getpid()]
    while todo:
        pid = todo.pop()
        tree[pid] = ticks.get(pid, 0)
        todo.extend(children.get(pid, ()))
    return tree


def session_cpu_seconds() -> float:
    """CPU seconds used so far by the driver and its live descendants, plus
    what their reaped children used."""
    return sum(_process_tree().values()) / os.sysconf("SC_CLK_TCK")


def host_ticks() -> tuple[int, int]:
    """(busy, stolen) clock ticks of all the VM's CPUs so far (/proc/stat)."""
    with open("/proc/stat") as f:
        user, nice, system, _idle, _iowait, irq, softirq, steal = (
            int(x) for x in f.readline().split()[1:9]
        )
    return user + nice + system + irq + softirq, steal


class Stopwatch:
    """Times a span in wall-clock time and net of steal.

    On a shared VM the hypervisor hands the CPUs to other guests for
    stretches of one to several minutes, and the kernel counts the ticks the
    VM wanted to run but could not as steal. A call's wall time grows as
    1 / (1 - steal share), where the steal share is stolen / (busy + stolen)
    ticks over the span, so ``net_wall_s`` = wall x (1 - steal share) is the
    wall time the VM's CPUs actually ran for."""

    def __init__(self):
        self.ticks, self.t0 = host_ticks(), time.perf_counter()

    def read(self) -> dict:
        wall = time.perf_counter() - self.t0
        busy, steal = (b - a for a, b in zip(self.ticks, host_ticks()))
        share = steal / max(1, busy + steal)
        return {"wall_s": wall, "net_wall_s": wall * (1.0 - share), "steal_share": share}


def stop_ray(timeout_s: float = 30.0) -> None:
    """``ray.shutdown()``, then wait until every process the session started
    has ended; kill what is left after ``timeout_s``."""
    import ray

    started = set(_process_tree()) - {os.getpid()}
    ray.shutdown()
    deadline = time.monotonic() + timeout_s
    while True:
        try:
            while os.waitpid(-1, os.WNOHANG)[0]:
                pass  # reap children that have exited
        except ChildProcessError:
            pass
        alive = [pid for pid in started if _alive(pid)]
        if not alive:
            return
        if time.monotonic() > deadline:
            for pid in alive:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            deadline = time.monotonic() + timeout_s
        time.sleep(0.05)


def _alive(pid: int) -> bool:
    """False once ``pid`` has exited (a zombie counts as exited)."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def peak_rss_mb() -> float:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def ray_cpus() -> int:
    """As many CPUs as ``nproc`` reports (it honours OMP_NUM_THREADS)."""
    try:
        out = subprocess.run(["nproc"], capture_output=True, text=True, check=True).stdout
        return max(1, int(out.strip()))
    except (OSError, ValueError, subprocess.CalledProcessError):
        return max(1, len(os.sched_getaffinity(0)))


def start_ray(num_cpus: int) -> None:
    import ray
    from ray.data import DataContext

    kwargs = {}
    if len(RAY_TMP) <= RAY_TMP_MAX_LEN:
        kwargs["_temp_dir"] = RAY_TMP
    ray.init(
        num_cpus=num_cpus,
        include_dashboard=False,
        log_to_driver=False,
        logging_level="ERROR",
        object_store_memory=512 * 1024 * 1024,
        **kwargs,
    )
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.enable_operator_progress_bars = False


class Workload:
    """One workload's prepared inputs and its pipeline call."""

    def __init__(self, name: str, seed: int, n_pages: int | None = None):
        n_pages = n_pages or workloads.N_PAGES
        self.name = name
        self.cache = workloads.cache_dir(ROOT, name, seed, n_pages)
        self.oracle = workloads.oracle_dir(ROOT, name, seed, n_pages)
        self.cfg = workloads.pipeline_config(name)
        with open(os.path.join(self.cache, "props.json")) as f:
            self.props = json.load(f)
        self.fold = name == "fold-labelprop"
        self.pages_dir = os.path.join(self.cache, "new" if self.fold else "pages")
        self.corpus_run = os.path.join(self.cache, "corpus_run")
        # pages handed to one call: the new batch on a fold
        self.call_pages = self.props["new_pages"] if self.fold else self.props["pages"]

    def ensure_corpus_run(self) -> None:
        """The completed run over the 90% corpus a fold folds into, built
        once per (workload, seed) and only read afterwards."""
        if not self.fold or os.path.exists(os.path.join(self.corpus_run, "_BENCH_DONE")):
            return
        from entity_resolution_engine_ray.pipelines.pages_er import run_pages_er

        shutil.rmtree(self.corpus_run, ignore_errors=True)
        run_pages_er(os.path.join(self.cache, "corpus"), self.corpus_run, cfg=self.cfg)
        open(os.path.join(self.corpus_run, "_BENCH_DONE"), "w").close()

    def call(self, out_dir: str) -> None:
        from entity_resolution_engine_ray.pipelines import pages_er

        if self.fold:
            pages_er.run_pages_er_incremental(self.corpus_run, self.pages_dir, out_dir, cfg=self.cfg)
        else:
            pages_er.run_pages_er(self.pages_dir, out_dir, cfg=self.cfg)


def fresh_dir() -> str:
    return os.path.join(ROOT, ".bench_work", uuid.uuid4().hex[:12])


def prepare_inputs(workload: str, seed: int) -> None:
    """Generate inputs and the oracle answer in a child process, so neither
    their time nor their memory lands in the measured driver."""
    if workloads.is_prepared(workloads.cache_dir(ROOT, workload, seed)) and os.path.exists(
        os.path.join(workloads.warmup_dir(ROOT), "_DONE")
    ):
        return
    subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--prepare", "--workload", workload,
         "--seed", str(seed)],
        check=True,
        stdout=sys.stderr,
        cwd=ROOT,
        timeout=170,
    )


def setup(workload: Workload, num_cpus: int, reps: int) -> list[float]:
    """``reps`` set-ups: each starts Ray and makes one warm-up call on a
    small input; the package import, paid once per process, is added to
    each. Ray is left running after the last."""
    watch = Stopwatch()
    import ray.data  # noqa: F401

    from entity_resolution_engine_ray.pipelines import pages_er

    import_s = watch.read()["net_wall_s"]
    warm_pages = os.path.join(workloads.warmup_dir(ROOT), "pages")
    times = []
    for rep in range(reps):
        if rep:
            stop_ray()
        out = fresh_dir()
        watch = Stopwatch()
        start_ray(num_cpus)
        pages_er.run_pages_er(warm_pages, out, cfg=workload.cfg)
        times.append(import_s + watch.read()["net_wall_s"])
        shutil.rmtree(out, ignore_errors=True)
    return times


def timed_calls(workload: Workload, ref, seconds: float) -> list[dict]:
    """Call the pipeline until ``seconds`` of call time have passed; check
    every call's output, untimed."""
    calls: list[dict] = []
    while not calls or sum(c["wall_s"] for c in calls) < seconds:
        out = fresh_dir()
        cpu0, watch = session_cpu_seconds(), Stopwatch()
        error = None
        try:
            workload.call(out)
        except Exception as e:  # a failed call is counted, not fatal
            error = repr(e)
        times = watch.read()
        cpu = session_cpu_seconds() - cpu0
        calls.append({**times, "cpu_s": cpu, **_verdict(out, ref, error)})
        shutil.rmtree(out, ignore_errors=True)
    return calls


def _verdict(out: str, ref: Reference, error: str | None) -> dict:
    if error is None:
        try:
            v = check_run(out, ref)
        except Exception as e:  # unreadable output fails the check
            error = f"check: {e!r}"
        else:
            return {
                "ok": v.ok,
                "decision_f1": v.decision_f1,
                "cluster_f1": v.cluster_f1,
                "cluster_pairwise_f1": v.cluster_pairwise_f1,
                "truth_f1": v.truth_f1,
                "truth_pairwise_f1": v.truth_pairwise_f1,
                "approved": v.approved,
                "extra_approved": v.extra_approved,
                "missing_approved": v.missing_approved,
                "problems": v.problems,
            }
    return {"ok": False, "decision_f1": 0.0, "cluster_f1": 0.0, "truth_f1": 0.0,
            "problems": [error]}


def end_to_end(workload: Workload, calls: list[dict], setups: list[float]) -> dict:
    passed = sum(c["ok"] for c in calls)
    return {
        "pages_per_s": (statistics.median(workload.call_pages / c["net_wall_s"] for c in calls), "pages/s"),
        "setup_s": (statistics.median(setups), "s"),
        "driver_peak_rss_mb": (peak_rss_mb(), "MB"),
        "decision_f1": (min(c["decision_f1"] for c in calls), "ratio"),
        "cluster_f1": (min(c["cluster_f1"] for c in calls), "ratio"),
        "truth_f1": (min(c["truth_f1"] for c in calls), "ratio"),
        "passed_runs_frac": (passed / len(calls), "ratio"),
    }


def traced_calls(workload: Workload, ref, seconds: float) -> tuple[list[dict], dict]:
    """Alternate untraced and traced calls until ``seconds`` of call time
    have passed. Every traced output must equal the first untraced one."""
    input_bytes = _input_bytes(workload)
    calls: list[dict] = []
    layers: list[dict] = []
    spans: list[list[dict]] = []
    baseline = None
    while len(calls) < 2 or sum(c["wall_s"] for c in calls) < seconds:
        traced = len(calls) % 2 == 1
        tracer = Tracer()
        out = fresh_dir()
        error = None
        if traced:
            tracer.install()
        t0 = time.perf_counter()
        try:
            workload.call(out)
        except Exception as e:  # a failed call is counted, not fatal
            error = repr(e)
        finally:
            wall = time.perf_counter() - t0
            tracer.uninstall()
        call = {"traced": traced, "wall_s": wall, **_verdict(out, ref, error)}
        if error is None and call["ok"]:
            approved, labels = read_approved(out), read_labels(out)
            partition = labels.sort_values("url")
            if baseline is None:
                baseline = (approved, partition)
            elif not (
                np.array_equal(approved, baseline[0])
                and np.array_equal(partition["url"], baseline[1]["url"])
                and bcubed_f1(partition["cluster_label"], baseline[1]["cluster_label"]) == 1.0
            ):
                call["ok"] = False
                call["problems"].append("output differs from the first untraced call")
            if traced:
                m = layer_metrics(tracer, out, input_bytes)
                m["stages.cluster.approved_edges"] = float(len(approved))
                m["stages.cluster.clusters"] = float(labels["cluster_label"].nunique())
                layers.append(m)
                spans.append(tracer.dump())
        calls.append(call)
        shutil.rmtree(out, ignore_errors=True)
    return calls, {"layers": layers, "spans": spans}


def _input_bytes(workload: Workload) -> int:
    """On-disk bytes of the pages the output covers (corpus + batch on a fold)."""
    dirs = [workload.pages_dir] + ([os.path.join(workload.cache, "corpus")] if workload.fold else [])
    return sum(
        os.path.getsize(os.path.join(d, f)) for d in dirs for f in os.listdir(d)
    )


def featurize_us_per_doc(reps: int = 5) -> dict[str, float]:
    """``featurize_batch`` on fixed in-memory batches, in the driver: one
    warm call, then the median of ``reps`` calls, in µs per document."""
    from entity_resolution_engine_ray.config import PagesERConfig
    from entity_resolution_engine_ray.stages.block import featurize_batch

    cfg = PagesERConfig()
    out = {}
    for kind, batch in workloads.featurize_batches().items():
        featurize_batch(batch, cfg)
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            featurize_batch(batch, cfg)
            times.append(time.perf_counter() - t0)
        out[kind] = statistics.median(times) / batch.num_rows * 1e6
    return out


def per_layer(workload: Workload, calls: list[dict], trace: dict) -> dict:
    """Median of each layer figure over the traced calls; a figure no
    successful traced call produced reads 0."""
    layers = trace["layers"]
    metrics = {n: statistics.median(m[n] for m in layers) for n in (layers[0] if layers else ())}
    untraced = [c["wall_s"] for c in calls if not c["traced"]]
    traced = [c["wall_s"] for c in calls if c["traced"]]
    metrics["tracing_overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    metrics["stages.block.nonascii_doc_share"] = workload.props["featurized_nonascii_page_share"]
    for kind, us in featurize_us_per_doc().items():
        metrics[f"stages.block.featurize_batch_us_per_doc.{kind}"] = us
    return {n: (float(metrics.get(n, 0.0)), unit) for n, unit in LAYER_UNITS.items()}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--prepare", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    # Ray workers import the engine too: give them the checkout on their path
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p
    )
    os.environ.setdefault("RAY_USAGE_STATS_ENABLED", "0")
    if importlib.util.find_spec(PACKAGE) is None:
        print(f"erbench: package {PACKAGE} not found under {ROOT}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"erbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.prepare:
        workloads.prepare(ROOT, args.workload, args.seed)
        workloads.prepare_warmup(ROOT)
        return 0

    t_start = time.perf_counter()
    prepare_inputs(args.workload, args.seed)
    prep_s = time.perf_counter() - t_start
    workload = Workload(args.workload, args.seed)
    ref = Reference.load(workload.oracle, exact=not workload.fold)
    num_cpus = ray_cpus()
    try:
        # a traced run reports no setup_s, so it sets up once
        setups = setup(workload, num_cpus, 1 if args.trace else SETUP_REPS)
        workload.ensure_corpus_run()
        if args.trace:
            calls, trace = traced_calls(workload, ref, args.seconds)
            metrics = per_layer(workload, calls, trace)
        else:
            calls, trace = timed_calls(workload, ref, args.seconds), {}
            metrics = end_to_end(workload, calls, setups)
    finally:
        stop_ray()
        shutil.rmtree(os.path.join(ROOT, ".bench_work"), ignore_errors=True)
        shutil.rmtree(RAY_TMP, ignore_errors=True)

    failed = sum(not c["ok"] for c in calls)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "ray_cpus": num_cpus,
        "properties": workload.props,
        "setup_s": setups,
        "prepare_s": prep_s,
        "run_s": time.perf_counter() - t_start,
        "calls": calls,
        **trace,
    }
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    with open(os.path.join(ROOT, ".bench_out", f"{args.workload}-s{args.seed}-t{args.trace}.json"), "w") as f:
        json.dump(detail, f, indent=1, default=str)
    print(json.dumps({k: v for k, v in detail.items() if k != "spans"}, default=str), file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": len(calls),
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
