"""Timed passes over a workload's ops, set-up timing, and machine facts."""

import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict, dataclass

import numpy as np
import scipy

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class OpRecord:
    op_id: int
    label: str
    wall_s: float
    cpu_s: float
    ok: bool
    rel_err: float
    error: str


def _cpu_seconds() -> float:
    """User + system CPU time of this process, all threads included."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def run_op(op, op_id: int, tracer=None) -> OpRecord:
    """Time one op, then check its output outside the timed region."""
    error = ""
    codes = None
    cpu0 = _cpu_seconds()
    t0 = time.perf_counter()
    if tracer is not None:
        tracer.begin_op(op_id, op.label)
    try:
        codes = op.run()
    except Exception:  # an op that raises counts as failed; the run goes on
        error = traceback.format_exc(limit=3)
    finally:
        if tracer is not None:
            tracer.end_op()
    wall = time.perf_counter() - t0
    cpu = _cpu_seconds() - cpu0
    rel_err = float("nan")
    if not error:
        try:
            rel_err = op.check(codes)
        except workloads.CheckFailed as exc:
            error = f"check failed: {exc}"
        except (OSError, ValueError) as exc:
            error = f"output unreadable: {exc}"
    return OpRecord(op_id, op.label, wall, cpu, not error, rel_err, error)


def timed_pass(workload: str, seed: int, seconds: float, workdir: str, size: str,
               tracer=None) -> list[OpRecord]:
    """Run whole cycles of the workload's ops for about ``seconds`` seconds.

    A cycle is every op of the workload once, in a seed-shuffled order.  The
    first cycle always runs; another starts only if it is expected to end
    within ``seconds``, so the median op always falls in the same group.
    Outputs that must be deterministic are compared byte for byte against
    the first repeat in the pass.
    """
    ops = workloads.build_cycle(workload, seed, workdir, size)
    for op in ops:
        op.prepare()
    records = []
    first_bytes = {}
    start = time.perf_counter()
    cycle = 0
    while True:
        cycle_start = time.perf_counter()
        for op in workloads.cycle_order(ops, seed, cycle):
            rec = run_op(op, len(records), tracer)
            if rec.ok:
                data = op.output_bytes()
                if first_bytes.setdefault(op.label, data) != data:
                    rec.ok = False
                    rec.error = "outputs differ from the first repeat of the same config"
            records.append(rec)
        cycle += 1
        now = time.perf_counter()
        if now - start + (now - cycle_start) > seconds:
            return records


def warm_up(workload: str, workdir: str, size: str) -> None:
    """One small op of each kind, untimed: triggers lazy imports and BLAS set-up."""
    for op in workloads.warmup_ops(workload, workdir, size):
        op.prepare()
        rec = run_op(op, -1)
        if not rec.ok:
            raise RuntimeError(f"warm-up op {rec.label} failed: {rec.error}")


def summarize(records: list[OpRecord]) -> dict:
    """End-to-end figures of one pass (failed ops count as attempted, not completed)."""
    walls = [r.wall_s for r in records]
    ok = [r for r in records if r.ok]
    return {
        "attempted": len(records),
        "failed": len(records) - len(ok),
        "ops_per_s": len(ok) / sum(walls),
        "op_p50_s": statistics.median(walls),
        "op_samples": len(walls),
        "cpu_per_op_s": sum(r.cpu_s for r in records) / len(records),
        "max_rel_err": max((r.rel_err for r in ok), default=1.0),
        "fail_ratio": (len(records) - len(ok)) / len(records),
    }


def setup_samples(workload: str, size: str, workdir: str, reps: int) -> list[float]:
    """Wall time from launching a fresh interpreter to the probe reporting ready.

    The probe imports fraclap, numpy and scipy and runs the workload's
    warm-up ops, so this is the set-up a user pays before the first op.
    """
    samples = []
    cmd = [sys.executable, os.path.join(HERE, "probe.py"), "setup",
           "--workload", workload, "--size", size, "--workdir", workdir]
    for _ in range(reps):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code}): {line.strip()!r}")
        samples.append(elapsed)
    return samples


def single_thread_pass(workload: str, seed: int, seconds: float, workdir: str,
                       size: str) -> dict:
    """The same pass in a fresh process with every BLAS pool at one thread."""
    env = dict(os.environ)
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    cmd = [sys.executable, os.path.join(HERE, "probe.py"), "pass",
           "--workload", workload, "--size", size, "--workdir", workdir,
           "--seed", str(seed), "--seconds", repr(seconds)]
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"single-thread pass failed (exit {proc.returncode})")
    return json.loads(lines[-1])


def records_as_dicts(records: list[OpRecord]) -> list[dict]:
    return [asdict(r) for r in records]


# -- machine and run facts -------------------------------------------------

def _read(path: str) -> str:
    try:
        with open(path) as handle:
            return handle.read().strip()
    except OSError:
        return ""


def _cpu_model() -> str:
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _caches() -> dict:
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for entry in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        level = _read(os.path.join(base, entry, "level"))
        kind = _read(os.path.join(base, entry, "type"))
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(os.path.join(base, entry, "size"))
    return caches


def blas_pools() -> list[dict]:
    """Every OpenBLAS library loaded in this process with its thread count.

    numpy and scipy each bundle their own OpenBLAS: numpy's serves the
    matrix-vector products, scipy's serves the LAPACK factorizations.
    """
    pools = []
    paths = sorted({line.split()[-1] for line in _read("/proc/self/maps").splitlines()
                    if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        info = {"library": os.path.basename(path)}
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if threads is not None and "threads" not in info:
                    threads.restype = ctypes.c_int
                    info["threads"] = threads()
                if config is not None and "config" not in info:
                    config.restype = ctypes.c_char_p
                    info["config"] = config().decode()
        pools.append(info)
    return pools


def _git_commit(root: str) -> str:
    head = _read(os.path.join(root, ".git", "HEAD"))
    if head.startswith("ref:"):
        return _read(os.path.join(root, ".git", head.split(None, 1)[1])) or "unknown"
    return head or "unknown"


def machine_facts(root: str, seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "blas": {"numpy": f"{blas.get('name')} {blas.get('version')}",
                 "pools": blas_pools(),
                 "env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS}},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(root),
        "seed": seed,
    }
