"""sobex benchmark: time to certificate on two workloads.

Run from the repository root:

    python3 perfbench/run.py --workload heat-refine --seed 0 --seconds 60 --trace 0

Each unit of work runs in a fresh interpreter (``worker.py``), one at a
time, with ``src`` on ``PYTHONPATH`` and BLAS threads set to the CPUs this
process may use.  Units repeat until ``--seconds`` is spent; the medians
over units are reported.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` alternates untraced and traced units and reports the
per-layer metrics and the tracing overhead.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` (certified
checks) and ``metrics``.  A full record, with provenance and certified
outputs, goes to ``perfbench/out/``.  See ``perfbench/README.md``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracer import PER_LAYER, RUN_LEVEL

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("heat-refine", "cli-defaults")
SETUP_PROBES = 2      # set-up-only interpreters before each unit, besides its own
RUN_LIMIT_S = 170.0   # a run must end within 180 s
END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark could not measure (as opposed to a failed check)."""


def cpus():
    return len(os.sched_getaffinity(0))


def worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(cpus())
    return env


def call_worker(flags, deadline, env):
    """Run ``worker.py`` to completion and parse its last output line."""
    cmd = [sys.executable, str(HERE / "worker.py"), *flags]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out: {' '.join(flags)}") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {' '.join(flags)} exited {proc.returncode}:\n"
                         f"{proc.stderr[-3000:]}")
    return json.loads(lines[-1])


def git_state():
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return None, None

    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, timeout=30).stdout.strip()

    return git("rev-parse", "HEAD") or None, bool(git("status", "--porcelain",
                                                      "--untracked-files=no"))


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def line_counts():
    counts = {}
    for path in sorted((SRC / "sobex").glob("*.py")):
        with open(path, encoding="utf-8") as fh:
            counts[path.name] = sum(1 for line in fh if line.strip())
    return counts


def provenance(env, deadline):
    sha, dirty = git_state()
    info = call_worker(["--provenance", "1"], deadline, env)
    info.update(git_sha=sha, git_dirty=dirty, nproc=cpus(), cpu=cpu_model(),
                blas_threads=int(env["OPENBLAS_NUM_THREADS"]),
                src_nonblank_lines=line_counts())
    return info


def measure(args, workdir, start):
    """Run the set-up probes and the units; return the raw samples.

    ``SETUP_PROBES`` set-up-only interpreters run before each unit, and more
    fill the time the last unit leaves, so the set-up samples are spread
    over the whole run like the units.
    """
    env = worker_env()
    deadline = start + RUN_LIMIT_S
    prov = provenance(env, deadline)   # also warms the imports before timing
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    end = start + args.seconds
    setups, units, longest = [], [], 0.0

    def probe():
        flags = common + ["--setup-only", "1",
                          "--workdir", os.path.join(workdir, f"s{len(setups)}")]
        t = time.monotonic()
        setups.append(call_worker(flags, deadline, env)["setup_s"])
        return time.monotonic() - t

    cycle = (0, 1) if args.trace else (0,)
    while True:
        k = len(units)
        t = time.monotonic()
        for _ in range(SETUP_PROBES):
            probe()
        traced = cycle[k % len(cycle)]
        flags = common + ["--trace", str(traced), "--workdir", os.path.join(workdir, f"u{k}")]
        if traced:
            flags += ["--spans", str(OUT / f"spans-{args.workload}-seed{args.seed}-u{k}.jsonl")]
        unit = call_worker(flags, deadline, env)
        longest = max(longest, time.monotonic() - t)
        unit["traced"] = bool(traced)
        units.append(unit)
        now = time.monotonic()
        if len(units) >= len(cycle) and now + longest > end:
            break
        if now + longest > deadline:
            if len(units) < len(cycle):
                raise BenchError("no time left for a traced unit")
            break
    probe_s = 0.0
    while time.monotonic() + probe_s < min(end, deadline):
        probe_s = max(probe_s, probe())
    return prov, setups, units


def summarize(args, setups, units):
    plain = [u for u in units if not u["traced"]]
    traced = [u for u in units if u["traced"]]
    checks = [c for u in units for c in u["checks"]]
    failed = [name for name, ok in checks if not ok]
    outputs = {json.dumps(u["outputs"], sort_keys=True) for u in units}
    run_s = statistics.median(u["run_s"] for u in plain)
    if args.trace:
        layers = {m: statistics.median(u["layers"][m] for u in traced)
                  for m in PER_LAYER if m not in RUN_LEVEL}
        traced_s = statistics.median(u["run_s"] for u in traced)
        layers.update({"trace.traced_run_s": traced_s, "trace.untraced_run_s": run_s,
                       "trace.overhead_s": traced_s - run_s})
        metrics = {m: {"value": v, "unit": PER_LAYER[m][0]} for m, v in layers.items()}
    else:
        values = {"run_s": run_s,
                  "setup_s": statistics.median(setups + [u["setup_s"] for u in plain]),
                  "peak_rss_mb": max(u["peak_rss_mb"] for u in plain)}
        metrics = {m: {"value": v, "unit": END_TO_END[m]} for m, v in values.items()}
    return {
        "correct": not failed and len(outputs) == 1,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": metrics,
    }, failed, len(outputs) == 1


def coverage_gaps(workload, metrics):
    return [m for m, (_, where) in PER_LAYER.items()
            if workload in where and not metrics[m]["value"] > 0]


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=60.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be a non-negative integer")
    if not (SRC / "sobex" / "__init__.py").is_file():
        print(f"error: no sobex sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2

    start = time.monotonic()
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT)
    try:
        prov, setups, units = measure(args, workdir, start)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result, failed, consistent = summarize(args, setups, units)
    record_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "provenance": prov, "result": result,
              "fail_ratio": result["failed"] / max(1, result["attempted"]),
              "failed_checks": failed, "outputs_identical": consistent,
              "certified_outputs": units[0]["outputs"], "setup_probes_s": setups,
              "units": [{k: u[k] for k in ("traced", "setup_s", "run_s", "peak_rss_mb",
                                           "warnings", "layers") if k in u}
                        for u in units]}
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    n_traced = sum(u["traced"] for u in units)
    print(f"{args.workload} seed {args.seed}: {len(units) - n_traced} untraced and "
          f"{n_traced} traced units, {len(setups)} set-up probes; "
          f"{result['attempted'] - result['failed']}/{result['attempted']} checks passed; "
          f"record {record_path.relative_to(ROOT)}")
    for name in failed[:10]:
        print(f"FAILED {name}")
    if not consistent:
        print("FAILED certified outputs differ between units", file=sys.stderr)
    if args.trace:
        gaps = coverage_gaps(args.workload, result["metrics"])
        if gaps:
            print(f"error: per-layer metrics read zero on {args.workload}: "
                  f"{', '.join(gaps)}", file=sys.stderr)
            return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
