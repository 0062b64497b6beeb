"""bogodense benchmark: one run of one workload.

Usage (from the root of a checkout)::

    python3 bench/run.py --workload {cli_desk,dynamics,protocol} \\
        --seed N --seconds S --trace {0,1} [--record PATH]

The run pins BLAS/OpenMP to one thread in every child's environment before
its interpreter starts, measures the set-up time of several fresh worker
processes, runs the workload in one of them for S seconds, checks every
output against an independent reference, and prints a human-readable
report on standard error.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: with ``--trace 0`` the end-to-end metrics of BENCHMARK.json,
with ``--trace 1`` its per-layer metrics.  ``--record PATH`` also writes the
whole record (passes, jobs, environment) as JSON.

``failed`` counts jobs that raised or missed their reference; ``correct``
is false only when some job could not be checked at all.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5  # extra set-up-only processes; the worker adds one sample
WORKER_TIMEOUT_S = 170
PROBE_TIMEOUT_S = 60
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "BOGODENSE_THREADS",
)

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402

# Job name -> end-to-end job metric printed in the report.
JOB_METRICS = {
    "trace": "trace_s",
    "evolve_large": "evolve_large_s",
    "bimodal": "bimodal_s",
    "truncate": "truncate_s",
}


def _parse(argv):
    p = argparse.ArgumentParser(description="bogodense benchmark run")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", metavar="PATH", help="write the full record here as JSON")
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be >= 1")
    return args


def child_env():
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def _worker_cmd(args, launched, setup_only=False):
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--launched", repr(launched),
    ]
    return cmd + ["--setup-only"] if setup_only else cmd


def _launch(cmd, env, timeout):
    """Run a worker to completion; return its last stdout line as JSON."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"worker did not finish within {timeout} s") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with status {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def _median_pass(passes):
    return statistics.median(p["pass_s"] for p in passes) if passes else float("nan")


def _timing(values):
    """Median, the highest percentile with >= 10 samples beyond it, count."""
    values = sorted(values)
    n = len(values)
    out = {"median": statistics.median(values), "n": n}
    if n >= 20:
        # values[n - 11] is the largest sample with ten samples above it.
        out[f"p{100 * (n - 10) // n}"] = values[n - 11]
    return out


def summarize(record, trace):
    """Metrics of the final JSON line plus the report-only figures."""
    passes = record["passes"]
    plain = [p for p in passes if not p["traced"]]
    jobs = [j for p in passes for j in p["jobs"]]
    failed = sum(1 for j in jobs if j["error"] is not None)
    setups = record["setup_samples"]
    report = {
        "setup_s": _timing(setups),
        "pass_s": _timing([p["pass_s"] for p in plain]),
        "peak_rss_mb": record["peak_rss_mb"],
        "fail_frac": failed / len(jobs),
        "references_s": record["references_s"],
    }
    if record["env"]["workload"] == "cli_desk":
        report["request_p50_s"] = _timing([j["seconds"] for p in plain for j in p["jobs"]])
    for name, metric in JOB_METRICS.items():
        times = [j["seconds"] for p in plain for j in p["jobs"] if j["name"] == name]
        if times:
            report[metric] = _timing(times)
    if not trace:
        metrics = {
            "setup_s": (report["setup_s"]["median"], "s"),
            "pass_s": (report["pass_s"]["median"], "s"),
            "peak_rss_mb": (record["peak_rss_mb"], "MB"),
        }
    else:
        import spans

        traced = [p for p in passes if p["traced"]]
        per_pass = [spans.finalize(p["tally"]) for p in traced]
        layers = {k: statistics.median(d[k] for d in per_pass) for k in per_pass[0]}
        layers["import.s"] = statistics.median(record["import_samples"])
        layers["import.sparse_linalg_loaded"] = int(record["sparse_linalg_loaded"])
        layers["trace.overhead_s"] = _median_pass(traced) - _median_pass(plain)
        report["layers"] = layers
        report["errors_by_category"] = spans.error_breakdown(
            spans.combine(p["tally"] for p in traced)
        )
        metrics = {name: (layers[name], unit) for name, unit in per_layer_units().items()}
    result = {
        "correct": not record["unchecked"],
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, report


def per_layer_units():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def print_report(record, report):
    env = record["env"]
    w = sys.stderr.write
    w(f"bogodense benchmark: workload {env['workload']}, seed {env['seed']}, "
      f"{env['seconds']} s, trace {env['trace']}\n")
    w(f"  {WORKLOADS[env['workload']]}\n")
    w(f"  env: nproc {env['nproc']} (affinity {env['affinity']}), {env['blas']}, "
      f"BLAS threads {env['blas_threads']}, python {env['python']}, numpy {env['numpy']}, "
      f"scipy {env['scipy']}, commit {env['commit']}, source {env['source_sha256']}\n")
    for name, unit in (
        ("setup_s", "s"), ("pass_s", "s"), ("request_p50_s", "s"),
        ("trace_s", "s"), ("evolve_large_s", "s"), ("bimodal_s", "s"), ("truncate_s", "s"),
    ):
        if name in report:
            t = report[name]
            tail = "".join(f", {k} {v:.4f}" for k, v in t.items() if k.startswith("p"))
            tail = tail or ", no tail percentile (fewer than 20 samples)"
            w(f"  {name:<16} {t['median']:.4f} {unit} median{tail}, n={t['n']}\n")
    w(f"  {'peak_rss_mb':<16} {report['peak_rss_mb']:.1f} MB\n")
    w(f"  {'fail_frac':<16} {report['fail_frac']:.4g}\n")
    for p_idx, p in enumerate(record["passes"]):
        for j in p["jobs"]:
            if j["error"]:
                w(f"  FAILED pass {p_idx} {j['name']}: {j['error'][:300]}\n")
    for u in record["unchecked"]:
        w(f"  UNCHECKED {u}\n")
    w(f"  references took {report['references_s']:.1f} s (outside the timed region)\n")
    if "layers" in report:
        w("  per layer (median over traced passes, per pass):\n")
        for k, v in sorted(report["layers"].items()):
            w(f"    {k:<28} {v:.6g}\n")
        w(f"  errors by category: {report['errors_by_category'] or 'none'}\n")
        if record["missing_wrappers"]:
            w(f"  not observable (entry point missing): {record['missing_wrappers']}\n")


def main(argv=None):
    args = _parse(argv)
    if not (ROOT / "src" / "bogodense" / "__init__.py").is_file():
        sys.stderr.write(f"error: no bogodense sources under {ROOT / 'src'}; run from a checkout\n")
        return 2
    env = child_env()
    try:
        probes = [
            _launch(_worker_cmd(args, time.monotonic(), setup_only=True), env, PROBE_TIMEOUT_S)
            for _ in range(SETUP_PROBES)
        ]
        record = _launch(_worker_cmd(args, time.monotonic()), env, WORKER_TIMEOUT_S)
    except (RuntimeError, ValueError, IndexError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    samples = probes + [record]
    record["setup_samples"] = [s["setup_s"] for s in samples]
    record["import_samples"] = [s["import_s"] for s in samples]
    record["sparse_linalg_loaded"] = any(s["sparse_linalg_loaded"] for s in samples)
    result, report = summarize(record, args.trace)
    print_report(record, report)
    if args.record:
        with open(args.record, "w", encoding="utf-8") as fh:
            json.dump({"result": result, "report": report, "record": record}, fh, indent=1)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
