"""One benchmark run inside a fresh interpreter, started by ``run.py``.

The parent pins the BLAS/OpenMP thread caps in this process's environment
before the interpreter starts and passes its ``time.monotonic()`` at launch,
so that the set-up time covers interpreter start, ``import bogodense`` and
input generation.  The worker then:

1. runs whole passes over the workload's job list for the time budget,
   untraced (with ``--trace 1``: half the budget untraced, then half with
   the span recorder installed);
2. reads its peak resident memory (for ``cli_desk``, that of its children);
3. computes the independent references and checks every job of every pass;
4. prints one JSON record as the last line of standard output.

With ``--setup-only`` it stops after step 0 and prints its set-up time.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REQUEST_TIMEOUT_S = 120


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--launched", type=float, required=True, help="parent monotonic clock at launch")
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def main(argv=None):
    args = _parse(argv)
    t0 = time.perf_counter()
    import bogodense as bd

    import_s = time.perf_counter() - t0
    sparse_linalg_loaded = "scipy.sparse.linalg" in sys.modules
    from workloads import make_jobs

    jobs = make_jobs(args.workload, args.seed)
    setup_s = time.monotonic() - args.launched
    record = {
        "setup_s": setup_s,
        "import_s": import_s,
        "sparse_linalg_loaded": sparse_linalg_loaded,
    }
    if args.setup_only:
        _emit(record)
        return 0

    runner = CliRunner(args.workload) if args.workload == "cli_desk" else InProcessRunner(bd)
    try:
        budget = args.seconds / 2.0 if args.trace else args.seconds
        passes = run_passes(jobs, runner, budget)
        missing = []
        if args.trace:
            import spans

            rec = spans.Recorder()
            if args.workload != "cli_desk":
                missing = spans.install(rec)
            runner.start_tracing(rec)
            passes += run_passes(jobs, runner, budget)
        record["peak_rss_mb"] = runner.peak_rss_mb()
        record["missing_wrappers"] = missing or runner.missing
        t_ref = time.perf_counter()
        record["unchecked"] = check_passes(bd, jobs, passes, args.workload)
        record["references_s"] = time.perf_counter() - t_ref
    finally:
        runner.close()
    record["passes"] = [
        {k: v for k, v in p.items() if k != "outputs"} for p in passes
    ]
    record["env"] = environment(args)
    _emit(record)
    return 0


def _emit(record):
    sys.stdout.write(json.dumps(record) + "\n")
    sys.stdout.flush()


# ---------------------------------------------------------------- passes


def run_passes(jobs, runner, budget):
    """Whole passes until the next one is predicted to overrun the budget."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(runner.run_pass(jobs))
        elapsed = time.perf_counter() - start
        typical = statistics.median(p["pass_s"] for p in passes)
        if elapsed + typical > budget:
            return passes


def _failure(exc):
    return f"{getattr(exc, 'category', type(exc).__name__)}: {exc}"


class InProcessRunner:
    """Jobs as calls into the library in this process."""

    def __init__(self, bd):
        self.bd = bd
        self.rec = None
        self.missing = []

    def start_tracing(self, rec):
        self.rec = rec

    def run_pass(self, jobs):
        from workloads import IN_PROCESS_JOBS

        results, outputs = [], []
        t_pass = time.perf_counter()
        for job in jobs:
            fn = IN_PROCESS_JOBS[job.name]
            t = time.perf_counter()
            try:
                out, err = fn(self.bd, job.params), None
            except Exception as exc:  # a raising job is a counted failure
                out, err = None, _failure(exc)
            results.append({"name": job.name, "seconds": time.perf_counter() - t, "error": err})
            outputs.append(out)
        pass_s = time.perf_counter() - t_pass
        record = {"pass_s": pass_s, "traced": self.rec is not None, "jobs": results, "outputs": outputs}
        if self.rec is not None:
            import spans

            record["tally"] = dict(spans.tally(self.rec.take()))
        return record

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def close(self):
        pass


class CliRunner:
    """Jobs as ``python -m bogodense.cli`` subprocesses, one at a time.

    Each request writes its CSV table and JSON summary with ``--output``
    into a private directory of the checkout; the files are read back after
    the request's clock has stopped.
    """

    def __init__(self, workload):
        self.dir = ROOT / ".bench_out" / f"{workload}-{os.getpid()}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.rec = None
        self.missing = []
        self.count = 0

    def start_tracing(self, rec):
        self.rec = rec

    def run_pass(self, jobs):
        results, outputs, tallies = [], [], []
        t_pass = time.perf_counter()
        for job in jobs:
            self.count += 1
            csv_path = self.dir / f"r{self.count}.csv"
            spans_path = self.dir / f"r{self.count}.spans.json"
            if self.rec is None:
                cmd = [sys.executable, "-m", "bogodense.cli"]
            else:
                cmd = [sys.executable, str(HERE / "traced_cli.py"), str(spans_path)]
            cmd += job.params["argv"] + ["--output", str(csv_path)]
            t = time.perf_counter()
            try:
                proc = subprocess.run(
                    cmd, cwd=ROOT, capture_output=True, text=True, timeout=REQUEST_TIMEOUT_S
                )
                code, stderr = proc.returncode, proc.stderr
            except subprocess.TimeoutExpired:
                code, stderr = None, f"no reply within {REQUEST_TIMEOUT_S} s"
            seconds = time.perf_counter() - t
            out = {"exit_code": code, "stderr": stderr, "table": "", "summary": "{}"}
            json_path = csv_path.with_suffix(".json")
            if code == 0:
                out["table"] = csv_path.read_text()
                out["summary"] = json_path.read_text()
            if self.rec is not None and spans_path.exists():
                tallies.append(self._child_tally(spans_path))
            for path in (csv_path, json_path, spans_path):
                path.unlink(missing_ok=True)
            err = None if code == 0 else f"exit status {code}"
            results.append({"name": job.name, "seconds": seconds, "error": err})
            outputs.append(out)
        pass_s = time.perf_counter() - t_pass
        record = {"pass_s": pass_s, "traced": self.rec is not None, "jobs": results, "outputs": outputs}
        if self.rec is not None:
            import spans

            record["tally"] = dict(spans.combine(tallies))
        return record

    def _child_tally(self, path):
        import spans

        data = json.loads(path.read_text())
        for name in data["missing"]:
            if name not in self.missing:
                self.missing.append(name)
        return spans.tally([spans.Span(**s) for s in data["spans"]])

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            self.dir.parent.rmdir()
        except OSError:
            pass  # another run still uses it


# ---------------------------------------------------------------- checks


def check_passes(bd, jobs, passes, workload):
    """Check every job of every pass; a miss becomes the job's error.

    Returns the names of jobs whose reference could not be computed; their
    outputs stay unchecked and count as failures.
    """
    import references as ref

    builders = {
        "trace": (ref.trace_reference, ref.check_trace),
        "evolve_large": (ref.evolve_reference, ref.check_evolve),
        "bimodal": (ref.protocol_reference, ref.check_protocol),
        "truncate": (ref.protocol_reference, ref.check_protocol),
    }
    unchecked = []
    for idx, job in enumerate(jobs):
        try:
            if workload == "cli_desk":
                want, check = ref.cli_reference(bd, job), ref.check_cli
            else:
                build, check = builders[job.name]
                want = build(bd, job.params)
        except Exception as exc:  # the reference itself failed
            unchecked.append(f"{job.name}: {_failure(exc)}")
            want = None
        for p in passes:
            result, out = p["jobs"][idx], p["outputs"][idx]
            if result["error"] is not None:
                continue
            if want is None:
                result["error"] = "unchecked: reference failed"
                continue
            try:
                misses = check(out, want)
            except Exception as exc:  # output too malformed to compare
                misses = [f"check raised {_failure(exc)}"]
            if misses:
                result["error"] = "missed reference: " + "; ".join(misses)
    return unchecked


# ----------------------------------------------------------- environment


def _blas_threads():
    """Threads each loaded OpenBLAS would use, read from the libraries."""
    import ctypes

    libs = set()
    with open("/proc/self/maps") as fh:
        for line in fh:
            path = line.split()[-1]
            if "openblas" in path.lower() and ".so" in path:
                libs.add(path)
    out = {}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(path).name] = fn()
                break
    return out


def _source_digest():
    import hashlib

    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "bogodense").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(args):
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        threads = _blas_threads()
    except OSError as exc:
        threads = {"error": str(exc)}
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "thread_env": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BOGODENSE_THREADS")
        },
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _commit(),
        "source_sha256": _source_digest(),
    }


if __name__ == "__main__":
    sys.exit(main())
