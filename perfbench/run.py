"""Benchmark for the orbital-mcmc toolkit.

Run from the repository root:

    python3 perfbench/run.py --workload graph-tv --seed 1 --seconds 30 --trace 0

`--trace 0` measures the end-to-end metrics listed in BENCHMARK.json;
`--trace 1` records a span around every public call, drives the step loop
through a timed copy checked against `run_chain`, and reports the per-layer
metrics.  The last line of standard output is the JSON result; the lines
before it print every metric with its unit and sample statistics, the
environment, and for per-layer metrics the end-to-end metric each should
move.  Result sets and span files are written under `.perfbench_out/`.
"""

from __future__ import annotations

import os

# Pin BLAS threads before numpy loads: one thread per run keeps kernel timings
# steady on a shared 2-core host and is within `nproc` everywhere.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("graph-tv", "fs-gibbs", "exact-kernel")

# per-layer metric -> the end-to-end metric it should move, and where
LAYER_MOVES = {
    "families.build_s": "setup_s; tiny everywhere (control)",
    "clauses.parse_s": "setup_s on fs-gibbs",
    "clauses.encode_s": "setup_s on fs-gibbs",
    "clauses.detect_s": "setup_s on fs-gibbs",
    "autgroup.refine_s": "setup_s on fs-gibbs",
    "autgroup.search_s": "setup_s; most on fs-gibbs, little on graph-tv",
    "autgroup.generators": "count; must repeat exactly",
    "perm.enumerate_s": ("setup_s on graph-tv (K_9) and fs-gibbs; "
                         "exact_s on exact-kernel (K_9) and fs-gibbs"),
    "perm.group_order": "count",
    "perm.pr_init_s": "setup_s on graph-tv, fs-gibbs and exact-kernel",
    "perm.pr_draw_us": "steps_per_s.orbital_pr",
    "perm.exact_draw_us": "steps_per_s.orbital_exact",
    "perm.orbit_moved_frac": "time_to_tv_s.orbital_* on graph-tv",
    "perm.burnside_s": "exact_s on exact-kernel",
    "perm.orbit_partition_s": "exact_s on exact-kernel",
    "chains.base_step_us": "steps_per_s.* on every workload",
    "chains.base_moved_frac": "time_to_tv_s.* on graph-tv",
    "chains.run_s": "steps_per_s.* (run_chain calls per round)",
    "analysis.enumerate_s": "exact_s",
    "analysis.kernel_s": "exact_s on exact-kernel",
    "analysis.orbit_kernel_s": "exact_s on exact-kernel",
    "analysis.balance_s": "exact_s on exact-kernel",
    "analysis.mixing_s": "exact_s and peak_rss_mb on exact-kernel",
    "analysis.coupling_s": "exact_s on exact-kernel",
    "analysis.tv_s": "exact_s on graph-tv",
    "analysis.states": "count; peak_rss_mb",
    "analysis.kernel_bytes": "computed N^2*8 per dense kernel; peak_rss_mb",
    "cli.detect_s": "setup_s on fs-gibbs (same detection)",
    "cli.sample_s": "steps_per_s.* and the evidence path on fs-gibbs",
    "time_to_tv_s.base": "end-to-end, graph-tv only: samples to d_TV target / steps/s",
    "time_to_tv_s.orbital_exact": "end-to-end, graph-tv only",
    "time_to_tv_s.orbital_pr": "end-to-end, graph-tv only",
    "time_to_tv_s.split_half_gap": "agreement of time_to_tv_s over two disjoint seed sets",
    "evidence_violation_frac": "end-to-end, fs-gibbs only; 0 once evidence is applied",
    "trace_overhead.steps_per_s.base": "traced minus untraced steps/s",
    "trace_overhead.steps_per_s.orbital_exact": "traced minus untraced steps/s",
    "trace_overhead.steps_per_s.orbital_pr": "traced minus untraced steps/s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_commit() -> str:
    """Commit of the checkout read from .git, or a note when there is none."""
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
    return "unknown (not a git checkout)"


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 prints its config only
        blas = {}
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh
                       if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "orbitalmcmc" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'orbitalmcmc'}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import orbitalmcmc
    if Path(orbitalmcmc.__file__).resolve().parent != ROOT / "src" / "orbitalmcmc":
        print(f"error: imported {orbitalmcmc.__file__}, not the checkout",
              file=sys.stderr)
        return 2
    import harness
    import workloads

    out_root = ROOT / ".perfbench_out"
    workdir = out_root / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    rec = harness.Recorder(trace=bool(args.trace))
    run = {"graph-tv": workloads.graph_tv, "fs-gibbs": workloads.fs_gibbs,
           "exact-kernel": workloads.exact_kernel}[args.workload]
    try:
        result = run(rec, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["e2e"]["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = result["layer"] if args.trace else result["e2e"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: benchmark produced no value for {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    env = environment()
    tag = f"{args.workload} seed {args.seed} trace {args.trace}"
    print(f"# orbital-mcmc benchmark: {tag}, {args.seconds:g} s budget")
    print("# environment: " + json.dumps(env))
    for note in result["notes"]:
        print(f"# {note}")
    for m in wanted:
        name = m["name"]
        line = f"{name:44s} {values[name]:>16.6g} {m['unit']:10s} ({m['better']} is better)"
        if name in result["samples"]:
            line += "  " + harness.describe(result["samples"][name], m["unit"], m["better"])
        if args.trace:
            line += f"  -> {LAYER_MOVES.get(name, '')}"
        print(line)
    print(f"# checks: {rec.attempted} attempted, {rec.failed} failed")

    summary = {"correct": rec.failed == 0, "attempted": rec.attempted,
               "failed": rec.failed, "metrics": metrics}
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    with open(out_root / f"result_{stem}.json", "w") as fh:
        json.dump({"environment": env, "workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "samples": result["samples"],
                   "host_speed_scales": result["scales"],
                   **summary}, fh, indent=1)
    if args.trace:
        rec.write_spans(out_root / f"spans_{stem}.json")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
