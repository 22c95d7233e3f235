"""The three benchmark workloads and the traced step loop.

Each workload first sets up its models several times (the median is
`setup_s`), then runs measured rounds until its time budget is used.  Every
round is the same fixed job on fresh chain seeds, so round-level metrics are
medians over rounds.  All inputs derive from the workload seed.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import re
import statistics
import time
from pathlib import Path
from random import Random

from orbitalmcmc import analysis, autgroup, chains, cli, clauses, families, perm
from orbitalmcmc.chains import ChainKind
from orbitalmcmc.perm import OrbitSampler, PermutationGroup, ProductReplacement, SamplerMode

# set up at least SETUP_MIN_REPS times and until SETUP_MIN_SECONDS are spent,
# so that cheap set-ups still give a steady median
SETUP_MIN_REPS = 3
SETUP_MIN_SECONDS = 1.0
SETUP_MAX_REPS = 25
LAM = 1.0

# (metric suffix, chain kind, sampler mode); the mode is ignored by base kinds
IS_KINDS = (("base", ChainKind.INSERT_DELETE, SamplerMode.EXACT),
            ("orbital_exact", ChainKind.ORBITAL_INSERT_DELETE, SamplerMode.EXACT),
            ("orbital_pr", ChainKind.ORBITAL_INSERT_DELETE, SamplerMode.PRODUCT_REPLACEMENT))
GIBBS_KINDS = (("base", ChainKind.GIBBS, SamplerMode.PRODUCT_REPLACEMENT),
               ("orbital_exact", ChainKind.ORBITAL_GIBBS, SamplerMode.EXACT),
               ("orbital_pr", ChainKind.ORBITAL_GIBBS, SamplerMode.PRODUCT_REPLACEMENT))
LABELS = tuple(label for label, _, _ in IS_KINDS)

GENERATORS = {"grid": families.gen_grid,
              "cliques": families.gen_connected_cliques,
              "complete": families.gen_complete}


def expected_order(family: str, k: int) -> int:
    """Closed-form automorphism group order of a benchmark graph."""
    if family == "grid":
        return 8
    if family == "cliques":
        return math.factorial(k + 1) * math.factorial(k - 2) ** (k + 1)
    return math.factorial(k * k)


class Budget:
    """Decides whether another round fits in the run's time budget."""

    def __init__(self, seconds: float, min_rounds: int):
        self.start = time.perf_counter()
        self.seconds = seconds
        self.min_rounds = min_rounds
        self.rounds = 0
        self._last = 0.0

    def another(self) -> bool:
        now = time.perf_counter()
        if self.rounds < self.min_rounds:
            ok = True
        else:
            ok = now - self.start + self._last <= self.seconds
        if ok:
            self.rounds += 1
            self._round_start = now
        return ok

    def done(self) -> None:
        self._last = time.perf_counter() - self._round_start


def timed_setups(rec, build):
    """Run `build` repeatedly (see SETUP_MIN_REPS); return its last result.

    A set-up's time is the time in its top-level spans, so `build` does all
    its work inside spans.
    """
    start = time.perf_counter()
    result = None
    while (len(rec.ops["setup"]) < SETUP_MIN_REPS
           or (time.perf_counter() - start < SETUP_MIN_SECONDS
               and len(rec.ops["setup"]) < SETUP_MAX_REPS)):
        result = None  # drop the previous models before building new ones
        rec.begin("setup")
        result = build()
    return result


def setup_graph(rec, family: str, k: int):
    with rec.span("families.build"):
        graph = GENERATORS[family](k)
        colored = graph.to_colored()
    if rec.trace:
        rec.call("autgroup.refine", autgroup.color_refine, colored)
    group = rec.call("autgroup.search", autgroup.automorphism_generators, colored)
    rec.count("autgroup.generators", len(group.generators))
    return graph, group


def enumerate_group(rec, group, expected: int, what: str) -> None:
    order = rec.call("perm.enumerate", group.order)
    rec.count("perm.group_order", order)
    rec.check(order == expected, f"{what}: group order {order} != {expected}")


def rate(pairs) -> float:
    """Steps per second over (steps, seconds) pairs."""
    steps = sum(s for s, _ in pairs)
    seconds = sum(t for _, t in pairs)
    return steps / seconds


# ---------------------------------------------------------------------------
# traced step loop


def traced_chain(model, kind: ChainKind, steps: int, seed: int,
                 group, mode: SamplerMode):
    """`run_chain`'s loop, timing the base kernel and orbit draw separately.

    Draws happen in `run_chain`'s order: the sampler is built on the chain's
    own generator before the first step, then each step runs the base
    kernel and the orbit resample.  Product replacement is driven through
    its public class so that `next` is timed apart from the configuration
    update.  Returns the recorded states, the loop's wall time, the time in
    the base kernel and in orbit draws, the two moved counts, and whether the
    draws were exact.
    """
    step = chains.gibbs_step if kind.base is ChainKind.GIBBS else chains.insert_delete_step
    rng = Random(seed)
    sampler = pr = None
    if kind.is_orbital:
        if mode is SamplerMode.EXACT:
            sampler = OrbitSampler(group, mode, rng)
        else:
            pr = ProductReplacement(group, rng=rng)
    state = chains.initial_state(model, kind)
    states = [state]
    clock = time.perf_counter
    base_t = draw_t = 0.0
    base_moved = orbit_moved = 0
    start = clock()
    for _ in range(steps):
        t0 = clock()
        new = step(model, state, rng)
        t1 = clock()
        base_t += t1 - t0
        if new != state:
            base_moved += 1
        if sampler is not None:
            t0 = clock()
            out = sampler.sample(new)
            draw_t += clock() - t0
        elif pr is not None:
            t0 = clock()
            g = pr.next()
            draw_t += clock() - t0
            out = g.apply_config(new)
        else:
            out = new
        if out != new:
            orbit_moved += 1
        state = out
        states.append(state)
    elapsed = clock() - start
    return states, elapsed, base_t, draw_t, base_moved, orbit_moved, sampler is not None


def run_and_trace(rec, model, kind, steps, seed, group, mode, label, overhead,
                  traced=True):
    """`run_chain`, plus under tracing (and `traced`) the traced loop checked
    against it.  Returns the trace and its step-loop time in reference seconds.
    """
    trace = rec.call("chains.run", chains.run_chain, model, kind, steps, seed,
                     group=group, mode=mode)
    loop_seconds = trace.elapsed_seconds * rec.scale(rec.last("chains.run"))
    if rec.trace and traced:
        with rec.span("chains.traced_loop") as span:
            (states, elapsed, base_t, draw_t, base_moved, orbit_moved,
             exact) = traced_chain(model, kind, steps, seed, group, mode)
        scale = rec.scale(span)
        rec.check(states == trace.states,
                  f"traced loop diverges from run_chain ({kind.value}, seed {seed})")
        overhead[label]["traced"].append((steps, elapsed * scale))
        overhead[label]["plain"].append((steps, loop_seconds))
        rec.step_time["chains.base_step"][0] += base_t * scale
        rec.step_time["chains.base_step"][1] += steps
        rec.ratios["chains.base_moved"][0] += base_moved
        rec.ratios["chains.base_moved"][1] += steps
        if kind.is_orbital:
            draw = "perm.exact_draw" if exact else "perm.pr_draw"
            rec.step_time[draw][0] += draw_t * scale
            rec.step_time[draw][1] += steps
            rec.ratios["perm.orbit_moved"][0] += orbit_moved
            rec.ratios["perm.orbit_moved"][1] += steps
    return trace, loop_seconds


def new_overhead():
    return {label: {"traced": [], "plain": []} for label in LABELS}


SPAN_LAYERS = ("families.build", "clauses.parse", "clauses.encode", "clauses.detect",
               "autgroup.refine", "autgroup.search", "perm.enumerate", "perm.pr_init",
               "perm.burnside", "perm.orbit_partition", "chains.run",
               "analysis.enumerate", "analysis.kernel", "analysis.orbit_kernel",
               "analysis.balance", "analysis.mixing", "analysis.coupling", "analysis.tv",
               "cli.detect", "cli.sample")
COUNT_LAYERS = ("autgroup.generators", "perm.group_order",
                "analysis.states", "analysis.kernel_bytes")


def summarize(rec, exact_spans, rates, overhead, layer, notes) -> dict:
    """End-to-end and per-layer metrics common to all workloads.

    `layer` holds the workload's own per-layer values; every per-layer
    metric a workload does not exercise reads 0.
    """
    rec.finish()
    setup_times = rec.per_op("setup")
    exact_times = rec.per_op("round", *exact_spans)
    e2e = {"setup_s": statistics.median(setup_times),
           "exact_s": statistics.median(exact_times)}
    samples = {"setup_s": setup_times, "exact_s": exact_times}
    for label in LABELS:
        e2e[f"steps_per_s.{label}"] = statistics.median(rates[label])
        samples[f"steps_per_s.{label}"] = rates[label]

    out = {f"{name}_s": rec.layer_seconds(name) for name in SPAN_LAYERS}
    out.update({name: rec.layer_count(name) for name in COUNT_LAYERS})
    out["chains.base_step_us"] = rec.per_call_us("chains.base_step")
    out["chains.base_moved_frac"] = rec.ratio("chains.base_moved")
    out["perm.pr_draw_us"] = rec.per_call_us("perm.pr_draw")
    out["perm.exact_draw_us"] = rec.per_call_us("perm.exact_draw")
    out["perm.orbit_moved_frac"] = rec.ratio("perm.orbit_moved")
    for label in LABELS:
        out[f"time_to_tv_s.{label}"] = 0.0
        runs = overhead[label]
        out[f"trace_overhead.steps_per_s.{label}"] = (
            rate(runs["traced"]) - rate(runs["plain"]) if runs["traced"] else 0.0)
    out["time_to_tv_s.split_half_gap"] = 0.0
    out["evidence_violation_frac"] = 0.0
    out.update(layer)

    scales = rec.scales()
    notes = notes + [f"host speed scale (reference / measured): median "
                     f"{statistics.median(scales):.3f}, range {min(scales):.3f}-"
                     f"{max(scales):.3f} over {len(scales)} calibrations"]
    return {"e2e": e2e, "layer": out, "samples": samples, "notes": notes,
            "scales": scales}


# ---------------------------------------------------------------------------
# graph-tv: independent-set chains and their TV curves against exact pi

TV_MODELS = (("grid", 3), ("cliques", 3), ("complete", 3))
TV_STEPS = 4000
TV_SEEDS_PER_ROUND = 4
TV_TARGET = 0.2
# fine checkpoints early, where the orbital chains on K_9 cross the target,
# and the last sample so every recorded state is visited
TV_CHECKPOINTS = sorted(set(range(5, 200, 5)) | set(range(200, TV_STEPS + 1, 20))
                        | {TV_STEPS + 1})


def graph_tv(rec, seed: int, seconds: float, workdir) -> dict:
    budget = Budget(seconds, min_rounds=2)

    def build():
        models = {}
        for family, k in TV_MODELS:
            graph, group = setup_graph(rec, family, k)
            enumerate_group(rec, group, expected_order(family, k), f"{family} {k}")
            rec.call("perm.pr_init", ProductReplacement, group, rng=Random(seed))
            models[family] = (chains.IndependentSetModel(graph, LAM), group)
        return models

    models = timed_setups(rec, build)

    rates = {label: [] for label in LABELS}                      # per round
    runs = {(f, label): [] for f in models for label in LABELS}  # whole run
    hits = {(f, label): [] for f in models for label in LABELS}  # (round, samples)
    overhead = new_overhead()
    next_seed = seed * 100_000
    while budget.another():
        rec.begin("round")
        j = budget.rounds - 1
        seeds = range(next_seed, next_seed + TV_SEEDS_PER_ROUND)
        next_seed += TV_SEEDS_PER_ROUND
        round_runs = {label: [] for label in LABELS}
        for family, (model, group) in models.items():
            with rec.attempt(f"graph-tv {family} exact pi"):
                pi = rec.call("analysis.enumerate", analysis.exact_pi_lambda,
                              model.graph, LAM)
                rec.count("analysis.states", len(pi))
                universe = set(pi.states)
            for s in seeds:
                for label, kind, mode in IS_KINDS:
                    with rec.attempt(f"graph-tv {family} {label} seed {s}"):
                        # one traced seed per round keeps the seed count, and
                        # so the time-to-TV estimate, close to the untraced run's
                        trace, loop_seconds = run_and_trace(
                            rec, model, kind, TV_STEPS, s, group, mode, label, overhead,
                            traced=s == seeds[0])
                        rec.check(all(x in universe for x in trace.states),
                                  f"{family} {label} seed {s}: state not an independent set")
                        round_runs[label].append((TV_STEPS, loop_seconds))
                        runs[family, label].append((TV_STEPS, loop_seconds))
                        curve = rec.call("analysis.tv", analysis.tv_curve,
                                         trace, pi, TV_CHECKPOINTS)
                        hit = next((c for c, d in curve.points if d <= TV_TARGET),
                                   math.inf)
                        hits[family, label].append((j, hit))
        for label in LABELS:
            rates[label].append(rate(round_runs[label]))
        budget.done()

    def time_to_tv(label, parity=None):
        """Sum over models of median samples to the target over steps/s."""
        total = 0.0
        for family in models:
            xs = [h for j, h in hits[family, label] if parity is None or j % 2 == parity]
            median = statistics.median(xs)
            if not rec.check(median < math.inf, f"{family} {label}: median seed "
                             f"never reached d_TV {TV_TARGET}"):
                median = TV_STEPS + 1  # a lower bound, reported as such
            total += median / rate(runs[family, label])
        return total

    layer = {}
    gap = 0.0
    for label in LABELS:
        layer[f"time_to_tv_s.{label}"] = time_to_tv(label)
        even, odd = time_to_tv(label, 0), time_to_tv(label, 1)
        gap = max(gap, abs(even - odd) / ((even + odd) / 2))
    layer["time_to_tv_s.split_half_gap"] = gap
    notes = [f"rounds {budget.rounds}, chain seeds per kind and model "
             f"{budget.rounds * TV_SEEDS_PER_ROUND}, {TV_STEPS} steps each, "
             f"d_TV target {TV_TARGET}"]
    notes += [f"{name} {value:.6g}" for name, value in layer.items()]
    for family in models:
        for label in LABELS:
            xs = [h for _, h in hits[family, label]]
            notes.append(f"samples to d_TV<={TV_TARGET} {family} {label}: "
                         f"median {statistics.median(xs)}")
    return summarize(rec, ("analysis.enumerate", "analysis.tv"), rates, overhead,
                     layer, notes)


# ---------------------------------------------------------------------------
# fs-gibbs: the friends-smokers clause model with evidence

FS_PEOPLE = 10
# three of ten people carry evidence on smoking (fraction 0.3); fixing the
# true/false split keeps the symmetry group S_7 x S_2 x S_1 for every seed,
# so seeds vary which people are pinned, not the cost of detection
FS_EVIDENCE_VALUES = (True, True, False)
FS_STEPS = 4000
FS_SEEDS_PER_ROUND = 2
_RATE_LINE = re.compile(r"trace_(?P<kind>[\w-]+)_seed(?P<seed>\d+)\.csv: "
                        r"(?P<steps>\d+) steps, [\d,.]+ steps/s")


def fs_evidence(seed: int) -> dict:
    people = Random(seed).sample(range(FS_PEOPLE), len(FS_EVIDENCE_VALUES))
    return {f"smokes_p{p}": value for p, value in zip(people, FS_EVIDENCE_VALUES)}


def fs_expected(evidence: dict) -> tuple[int, int]:
    """Group order and variable-orbit count implied by the evidence classes."""
    sizes = [FS_PEOPLE - len(evidence)]
    sizes += [sum(1 for v in evidence.values() if v is value) for value in (True, False)]
    sizes = [s for s in sizes if s]
    order = math.prod(math.factorial(s) for s in sizes)
    # smokes and cancer: one orbit per class; friends: one per ordered pair
    # of classes, same-class pairs only for classes with two or more people
    orbits = 2 * len(sizes) + len(sizes) * (len(sizes) - 1) + sum(s >= 2 for s in sizes)
    return order, orbits


def run_cli(rec, span: str, argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = rec.call(span, cli.main, argv)
    rec.check(code == 0, f"orbital-mcmc {argv[0]} exited {code}")
    return out.getvalue()


def fs_cli_sample(rec, clause_path, evidence_path, seeds, n: int, ev_index, out_dir):
    """`orbital-mcmc sample --evidence` in-process; returns (violating, states)."""
    kinds = "gibbs,orbital-gibbs"
    text = run_cli(rec, "cli.sample", [
        "sample", "--model", "clauses", "--clauses", str(clause_path),
        "--evidence", str(evidence_path), "--chain", kinds,
        "--steps", str(FS_STEPS), "--seeds", ",".join(map(str, seeds)) + ",",
        "--mode", "pr", "--out", str(out_dir)])
    found = _RATE_LINE.findall(text)
    rec.check(len(found) == 2 * len(seeds), f"sample reported {len(found)} traces")
    violating = seen = 0
    for kind, s, steps in found:
        with open(out_dir / f"trace_{kind}_seed{s}.csv", newline="") as fh:
            states = [row[1] for row in list(csv.reader(fh))[1:]]
        rec.check(len(states) == int(steps) + 1, f"{kind} seed {s}: {len(states)} states")
        rec.check(all(len(x) == n and set(x) <= {"0", "1"} for x in states),
                  f"{kind} seed {s}: a state is not a 0/1 vector of length {n}")
        seen += len(states)
        violating += sum(any(x[i] != v for i, v in ev_index) for x in states)
    return violating, seen


def fs_gibbs(rec, seed: int, seconds: float, workdir) -> dict:
    budget = Budget(seconds, min_rounds=2)
    evidence = fs_evidence(seed)
    order_expected, orbits_expected = fs_expected(evidence)
    clause_path = workdir / "fs.clauses.txt"
    evidence_path = workdir / "fs.evidence.txt"

    def build():
        with rec.span("families.build"):
            clause_set, _ = families.gen_friends_smokers(FS_PEOPLE)
            clause_path.write_text(clauses.format_clause_file(clause_set))
            evidence_path.write_text(clauses.format_evidence_file(evidence))
        with rec.span("clauses.parse"):
            parsed = clauses.parse_clause_file(clause_path.read_text())
            ev = clauses.parse_evidence_file(evidence_path.read_text())
        if rec.trace:
            graph, _ = rec.call("clauses.encode", clauses.build_colored_graph, parsed, ev)
            rec.call("autgroup.refine", autgroup.color_refine, graph)
            rec.call("autgroup.search", autgroup.automorphism_generators, graph)
        report = rec.call("clauses.detect", clauses.model_symmetry_group, parsed, ev)
        rec.count("autgroup.generators", len(report.graph_group.generators))
        rec.check(len(report.variable_orbits) == orbits_expected,
                  f"fs: {len(report.variable_orbits)} variable orbits, "
                  f"expected {orbits_expected}")
        group = report.model_group
        enumerate_group(rec, group, order_expected, "fs")
        rec.call("perm.pr_init", ProductReplacement, group, rng=Random(seed))
        return rec.call("chains.model", chains.ClauseModel, parsed), group, ev

    model, group, ev = timed_setups(rec, build)
    ev_index = [(model.clause_set.var_index(name), "01"[value]) for name, value in ev.items()]

    rates = {label: [] for label in LABELS}
    overhead = new_overhead()
    violating = states_seen = 0
    next_seed = seed * 100_000
    while budget.another():
        rec.begin("round")
        j = budget.rounds - 1
        seeds = range(next_seed, next_seed + FS_SEEDS_PER_ROUND)
        next_seed += FS_SEEDS_PER_ROUND
        if j == 0:
            # the user-facing path with evidence, once per run: detection
            # inside the command would otherwise dominate every round
            with rec.attempt("fs-gibbs orbital-mcmc sample --evidence"):
                violating, states_seen = fs_cli_sample(
                    rec, clause_path, evidence_path, seeds, model.n, ev_index,
                    workdir / "sample")
            if rec.trace:
                with rec.attempt("fs-gibbs orbital-mcmc detect"):
                    run_cli(rec, "cli.detect", [
                        "detect", "--model", "clauses", "--clauses", str(clause_path),
                        "--evidence", str(evidence_path)])
        with rec.attempt("fs group enumeration"):
            # exact oracle: the order of a fresh copy of the group by enumeration
            fresh = PermutationGroup(group.generators, n=group.n)
            order = rec.call("perm.enumerate", fresh.order)
            rec.check(order == order_expected, f"fs: group order {order} != {order_expected}")
        round_runs = {label: [] for label in LABELS}
        for s in seeds:
            for label, kind, mode in GIBBS_KINDS:
                with rec.attempt(f"fs-gibbs {label} seed {s}"):
                    trace, loop_seconds = run_and_trace(
                        rec, model, kind, FS_STEPS, s, group, mode, label, overhead)
                    rec.check(all(len(x) == model.n and set(x) <= {0, 1}
                                  for x in trace.states),
                              f"fs {label} seed {s}: a state is not a 0/1 vector")
                    round_runs[label].append((FS_STEPS, loop_seconds))
        for label in LABELS:
            rates[label].append(rate(round_runs[label]))
        budget.done()

    frac = violating / states_seen if states_seen else 0.0
    notes = [f"rounds {budget.rounds}, evidence {sorted(ev.items())}, "
             f"group order {order_expected}",
             f"evidence_violation_frac {frac:.4f} over {states_seen} states from "
             f"orbital-mcmc sample --evidence (known defect: sampling ignores "
             f"evidence, so this is far above 0)"]
    return summarize(rec, ("perm.enumerate",), rates, overhead,
                     {"evidence_violation_frac": frac}, notes)


# ---------------------------------------------------------------------------
# exact-kernel: dense kernels, mixing times, coupling drift, orbit counting

KERNEL_MODELS = (("cliques", 4), ("grid", 4))
COUPLING_MODELS = (("grid", 3), ("grid", 4))
BURNSIDE_MODEL = ("complete", 3)
MIX_EPS = (0.1, 0.01)
BALANCE_TOL = 1e-10
# the acceptance suite's coupling check: its trial count and seed are fixed
# so the 3-SE drift test is deterministic rather than failing at random
COUPLING_TRIALS = 100_000
COUPLING_SEED = 78
RATE_STEPS = 6_000
EXACT_SPANS = ("analysis.enumerate", "analysis.kernel", "analysis.orbit_kernel",
               "analysis.balance", "analysis.mixing", "analysis.coupling",
               "perm.enumerate", "perm.burnside", "perm.orbit_partition")


def exact_kernel(rec, seed: int, seconds: float, workdir) -> dict:
    budget = Budget(seconds, min_rounds=1)
    reference = json.loads((Path(__file__).parent / "reference.json").read_text())

    def build():
        models = {}
        for family, k in dict.fromkeys(KERNEL_MODELS + COUPLING_MODELS + (BURNSIDE_MODEL,)):
            graph, group = setup_graph(rec, family, k)
            if (family, k) != BURNSIDE_MODEL:
                enumerate_group(rec, group, expected_order(family, k), f"{family} {k}")
            if (family, k) in KERNEL_MODELS:
                rec.call("perm.pr_init", ProductReplacement, group, rng=Random(seed))
            models[family, k] = (chains.IndependentSetModel(graph, LAM), group)
        return models

    models = timed_setups(rec, build)

    rates = {label: [] for label in LABELS}
    overhead = new_overhead()
    next_seed = seed * 100_000
    mixing = {}

    def rate_batch(round_runs):
        # short chains between the exact calls, so the step rate samples the
        # host across the whole round rather than one moment of it
        nonlocal next_seed
        s = next_seed
        next_seed += 1
        for family, k in KERNEL_MODELS:
            model, group = models[family, k]
            for label, kind, mode in IS_KINDS:
                with rec.attempt(f"exact-kernel {family}{k} {label} seed {s}"):
                    trace, loop_seconds = run_and_trace(
                        rec, model, kind, RATE_STEPS, s, group, mode, label, overhead)
                    rec.check(all(model.graph.is_independent(x) for x in trace.states),
                              f"{family}{k} {label} seed {s}: state not independent")
                    round_runs[label].append((RATE_STEPS, loop_seconds))

    while budget.another():
        rec.begin("round")
        round_runs = {label: [] for label in LABELS}
        for family, k in KERNEL_MODELS:
            model, group = models[family, k]
            name = f"{family}{k}"
            with rec.attempt(f"exact-kernel {name}"):
                pi = rec.call("analysis.enumerate", analysis.exact_pi_lambda, model.graph, LAM)
                rec.count("analysis.states", len(pi))
                for kind in (ChainKind.INSERT_DELETE, ChainKind.ORBITAL_INSERT_DELETE):
                    span = "analysis.orbit_kernel" if kind.is_orbital else "analysis.kernel"
                    matrix = rec.call(span, analysis.transition_matrix, model, kind,
                                      group=group)
                    rec.count("analysis.kernel_bytes", len(pi) ** 2 * 8)
                    with rec.span("analysis.balance"):
                        balance = analysis.check_detailed_balance(matrix, pi, tol=BALANCE_TOL)
                        drift = analysis.stationary_deviation(matrix, pi)
                    rec.check(balance.passed, f"{name} {kind.value}: detailed balance "
                              f"violation {balance.max_violation:.3e}")
                    rec.check(drift <= BALANCE_TOL,
                              f"{name} {kind.value}: |pi P - pi| = {drift:.3e}")
                    for eps in MIX_EPS:
                        tau = rec.call("analysis.mixing", analysis.mixing_time,
                                       matrix, pi, eps)
                        want = reference["mixing_time"][name][kind.value][str(eps)]
                        mixing[name, kind.value, eps] = tau
                        rec.check(tau == want, f"{name} {kind.value} eps={eps}: "
                                  f"mixing time {tau} != reference {want}")
                        rate_batch(round_runs)
                    del matrix
        for family, k in COUPLING_MODELS:
            model, group = models[family, k]
            with rec.attempt(f"exact-kernel coupling {family}{k}"):
                report = rec.call("analysis.coupling", analysis.coupling_drift, model,
                                  group, trials=COUPLING_TRIALS, seed=COUPLING_SEED)
                rec.check(report.expected_drift <= report.bound + 3 * report.drift_se,
                          f"{family}{k}: coupling drift {report.expected_drift:.5f} "
                          f"above bound {report.bound:.5f} + 3 SE")
            rate_batch(round_runs)
        with rec.attempt("exact-kernel Burnside"):
            family, k = BURNSIDE_MODEL
            _, group = models[BURNSIDE_MODEL]
            fresh = PermutationGroup(group.generators, n=group.n)
            enumerate_group(rec, fresh, expected_order(family, k), f"{family} {k}")
            count = rec.call("perm.burnside", perm.burnside_config_orbit_count, fresh)
            orbits = rec.call("perm.orbit_partition", perm.config_orbit_partition, fresh)
            # under the full symmetric group a configuration's orbit is its weight
            rec.check(count == len(orbits) == k * k + 1,
                      f"Burnside {count}, partition {len(orbits)}, expected {k * k + 1}")
            del fresh
        rate_batch(round_runs)
        for label in LABELS:
            rates[label].append(rate(round_runs[label]))
        budget.done()

    notes = [f"rounds {budget.rounds}, kernels on "
             + ", ".join(f"{f}{k}" for f, k in KERNEL_MODELS)]
    notes += [f"mixing time {name} {kind} eps={eps}: {tau}"
              for (name, kind, eps), tau in sorted(mixing.items())]
    return summarize(rec, EXACT_SPANS, rates, overhead, {}, notes)
