#!/usr/bin/env python3
"""Alternating parent/change pairs of the perfbench end-to-end metrics.

Run from anywhere inside the repository:

    python .github/bench-pairs.py --parent HEAD --pairs 10 --seconds 30 --out BENCH.json

The parent is `git archive <rev>` extracted into a temporary directory;
the change is a copy of this checkout's working-tree `src/`, `perfbench/`
and `BENCHMARK.json`, so both sides run from plain copies of their source
and edits made while the pairs run do not reach them.  Pair i runs each
workload once per side, `python3 perfbench/run.py --workload <w> --seed
<first seed + i> --seconds S --trace 0`, one run at a time; the parent
runs first in even pairs and the change in odd ones; `--first-seed`
(default 1) is the first pair's seed.  The result holds, per workload and
metric of BENCHMARK.json's `end_to_end` list, both sides' runs with median
and quartiles, the number of pairs in which the change was better, the
relative change of the medians, whether it is within the metric's bound,
the parent's interquartile range, whether the metric is unresolved (the
parent's interquartile range is larger than the bound times the parent's
median, so the runs spread too widely to tell a change within the bound
from none, unless every change run beats every parent run), and whether
it is a gain: of at least ten pairs, the change is better in at least
nine tenths, ties counting for neither side, and its median is better
than the parent's by more than the parent's interquartile range.  The
summary line of an unresolved metric ends in UNRESOLVED, that of a gain in
GAIN.  A pair in which either run failed is left out.  The exit status is
1 if a run failed or reported a failed check, 0 otherwise.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
QUARTILES = "statistics.quantiles(runs, n=4, method='inclusive')"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    return args


def git(*args) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def extract(parent: str, dest: Path) -> None:
    """The parent's committed files, and the working tree's benchmarked ones."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", parent],
                             check=True, capture_output=True).stdout
    (dest / "parent").mkdir()
    subprocess.run(["tar", "-x", "-C", str(dest / "parent")], input=archive, check=True)
    ignore = shutil.ignore_patterns("__pycache__", ".perfbench_out")
    for name in ("src", "perfbench"):
        shutil.copytree(ROOT / name, dest / "change" / name, ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", dest / "change" / "BENCHMARK.json")


def run_once(tree: Path, workload: str, seed: int, seconds: float):
    """The result line of one run, with the environment it printed, or None
    if the run failed."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", f"{seconds:g}", "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        print(f"{tree.name} {workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}",
              file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    env = next(ln for ln in lines if ln.startswith("# environment: "))
    result["environment"] = json.loads(env.split(": ", 1)[1])
    result["environment"].pop("commit", None)  # plain copies: no git checkout
    return result


def spread(runs: list) -> dict:
    """Median and quartiles; a single run is all three."""
    q1, median, q3 = (statistics.quantiles(runs, n=4, method="inclusive")
                      if len(runs) > 1 else runs * 3)
    return {"median": median, "q1": q1, "q3": q3, "runs": runs}


def compare(metric: dict, runs: dict) -> dict:
    """One metric's record: both sides, and the change against the parent."""
    lower = metric["better"] == "lower"
    parent, change = spread(runs["parent"]), spread(runs["change"])
    better = sum((c < p) if lower else (c > p) for p, c in zip(runs["parent"], runs["change"]))
    median_change = change["median"] / parent["median"] - 1 if parent["median"] else 0.0
    worse = median_change if lower else -median_change
    iqr = parent["q3"] - parent["q1"]
    gap = parent["median"] - change["median"] if lower else change["median"] - parent["median"]
    separated = (max(runs["change"]) < min(runs["parent"]) if lower
                 else min(runs["change"]) > max(runs["parent"]))
    return {"unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
            "parent": parent, "change": change, "change_better_pairs": better,
            "median_change": median_change, "within_bound": worse <= metric["bound"],
            "parent_iqr": iqr,
            "unresolved": iqr > metric["bound"] * parent["median"] and not separated,
            "gain": len(runs["parent"]) >= 10 and 10 * better >= 9 * len(runs["parent"])
                    and gap > iqr}


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]
    workloads = [w["name"] for w in spec["workloads"]]
    seeds = [args.first_seed + i for i in range(args.pairs)]
    firsts = [SIDES[i % 2] for i in range(args.pairs)]
    parent_commit = git("rev-parse", "--short", args.parent)
    record = {w: {"pairs": args.pairs, "seeds": seeds, "first": firsts,
                  "failed_checks": dict.fromkeys(SIDES, 0),
                  "attempted_checks": dict.fromkeys(SIDES, 0),
                  "runs": {m["name"]: {side: [] for side in SIDES} for m in metrics}}
              for w in workloads}
    status, environment = 0, None
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        extract(args.parent, Path(tmp))
        for seed, first in zip(seeds, firsts):
            order = SIDES if first == "parent" else SIDES[::-1]
            for w in workloads:
                results = {side: run_once(Path(tmp) / side, w, seed, args.seconds)
                           for side in order}
                if None in results.values():  # keep the pairs aligned: drop the pair
                    status = 1
                    print(f"pair seed {seed} {w}: a run failed, pair left out", file=sys.stderr)
                    continue
                rec = record[w]
                for side, result in results.items():
                    environment = environment or result["environment"]
                    rec["failed_checks"][side] += result["failed"]
                    rec["attempted_checks"][side] += result["attempted"]
                    status |= result["failed"] != 0
                    for name, value in result["metrics"].items():
                        if name in rec["runs"]:
                            rec["runs"][name][side].append(value["value"])
                print(f"pair seed {seed} {w}: done", file=sys.stderr)
    for w, rec in record.items():
        runs = rec.pop("runs")
        rec["metrics"] = {m["name"]: compare(m, runs[m["name"]]) for m in metrics
                          if all(runs[m["name"]].values())}
    out = {"what": ("perfbench end-to-end metrics at the parent commit and with this "
                    "change, alternating parent/change pairs, one seed per pair"),
           "command": ("python3 perfbench/run.py --workload <workload> --seed <seed> "
                       f"--seconds {args.seconds:g} --trace 0"),
           "parent_commit": parent_commit,
           "environment": environment,
           "change_commit": (f"the working tree on {git('rev-parse', '--short', 'HEAD')}"
                             + (" with uncommitted changes" if git("status", "--porcelain")
                                else "")),
           "order": ("pairs alternate which side runs first, parent first in the first "
                     "pair; pair i runs every workload in turn, seed first seed + i"),
           "quartiles": QUARTILES,
           "workloads": record}
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    for w, rec in record.items():
        print(f"{w}: failed checks {rec['failed_checks']}")
        for name, m in rec["metrics"].items():
            print(f"  {name:28s} parent {m['parent']['median']:.6g} change "
                  f"{m['change']['median']:.6g} ({m['median_change']:+.1%}, better in "
                  f"{m['change_better_pairs']}/{rec['pairs']}, "
                  f"{'within' if m['within_bound'] else 'OUTSIDE'} bound {m['bound']:.0%})"
                  + (" UNRESOLVED" if m["unresolved"] else "") + (" GAIN" if m["gain"] else ""))
    return status


if __name__ == "__main__":
    sys.exit(main())
