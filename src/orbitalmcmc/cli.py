"""Command-line front end: model generation, symmetry detection, sampling,
exact kernels, TV curves, coupling drift, and mixing times.

Exit codes: 0 success, 1 usage or input error, 2 enumeration guard
exceeded, 3 model infeasible.
"""

from __future__ import annotations

import argparse
import collections
import math
import sys
from pathlib import Path

from . import analysis, autgroup, chains, clauses, families, graphs, perm
from .errors import GuardExceededError, InfeasibleModelError

GRAPH_MODELS = ("grid", "cliques", "complete")
CHECKPOINT_COUNT = 50


class UsageError(Exception):
    pass


class Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def parse_seeds(text: str) -> list[int]:
    """Either a count N (seeds 0..N-1) or a comma-separated list."""
    if "," in text:
        seeds = [int(tok) for tok in text.split(",") if tok.strip()]
    else:
        seeds = list(range(int(text)))
    if not seeds:
        raise UsageError("need at least one seed")
    return seeds


def load_config(path: str, known: set) -> dict:
    """Flat key=value file; '#' starts a comment line.

    Values stay strings: argparse converts a string default with the
    matching flag's own type.  A key outside `known` (the flag names of all
    commands) is a usage error; a key that only some commands have is kept.
    """
    out = {}
    for ln in Path(path).read_text().splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        if "=" not in ln:
            raise UsageError(f"config line missing '=': {ln!r}")
        key, value = (part.strip() for part in ln.split("=", 1))
        key = key.replace("-", "_")
        if key not in known:
            raise UsageError(f"unknown config key {key!r} in {path}")
        out[key] = value
    return out


def write_resolved_config(args: argparse.Namespace, out_dir: Path) -> None:
    skip = {"func", "config"}
    lines = []
    for key, value in sorted(vars(args).items()):
        if key in skip or value is None:
            continue
        if isinstance(value, list):
            value = ",".join(str(v) for v in value)
        lines.append(f"{key}={value}")
    (out_dir / "config.resolved.txt").write_text("\n".join(lines) + "\n")


def out_dir(args) -> Path:
    if not getattr(args, "out", None):
        raise UsageError("--out is required")
    path = Path(args.out)
    path.mkdir(parents=True, exist_ok=True)
    write_resolved_config(args, path)
    return path


class ModelBundle:
    """A resolved model plus everything the commands need from it."""

    def __init__(self, args):
        self.kind = args.model
        if self.kind is None:
            raise UsageError("--model is required")
        # float(): detect and gen have no --lambda flag to type a config value
        self.lam = float(getattr(args, "lam", 1.0))
        if self.kind in GRAPH_MODELS:
            maker = {"grid": families.gen_grid,
                     "cliques": families.gen_connected_cliques,
                     "complete": families.gen_complete}[self.kind]
            self.graph = maker(args.k)
            self.names = list(self.graph.names)
            self.chain_model = chains.IndependentSetModel(self.graph, self.lam)
            self._group = None
        elif self.kind == "clauses":
            if not getattr(args, "clauses", None):
                raise UsageError("--model clauses requires --clauses FILE")
            text = Path(args.clauses).read_text()
            self.clause_set = clauses.parse_clause_file(text)
            evidence = {}
            if getattr(args, "evidence", None):
                evidence = clauses.parse_evidence_file(
                    Path(args.evidence).read_text())
            self.report = clauses.model_symmetry_group(self.clause_set, evidence)
            self.names = list(self.clause_set.variables)
            self.chain_model = chains.ClauseModel(self.clause_set)
            self._group = self.report.model_group
        else:
            raise UsageError(f"unknown model {self.kind!r}")

    @property
    def group(self) -> perm.PermutationGroup:
        if self._group is None:
            self._group = autgroup.automorphism_generators(self.graph)
        return self._group

    def exact_distribution(self) -> analysis.ExactDistribution:
        if self.kind in GRAPH_MODELS:
            return analysis.exact_pi_lambda(self.graph, self.lam)
        return analysis.exact_pi_clauses(self.clause_set)

    def chain_kinds(self, spec: str) -> list[chains.ChainKind]:
        kinds = [chains.ChainKind(tok.strip()) for tok in spec.split(",")]
        for kind in kinds:
            wants_gibbs = kind.base is chains.ChainKind.GIBBS
            if wants_gibbs != (self.kind == "clauses"):
                raise UsageError(
                    f"chain {kind.value} does not match model {self.kind}")
        return kinds


def add_model_flags(sub, with_lambda=True):
    sub.add_argument("--model", choices=GRAPH_MODELS + ("clauses",))
    sub.add_argument("--k", type=int, default=3, help="size parameter")
    sub.add_argument("--clauses", help="clause file for --model clauses")
    sub.add_argument("--evidence", help="evidence file for --model clauses")
    if with_lambda:
        sub.add_argument("--lambda", dest="lam", type=float, default=1.0,
                         help="fugacity for independent-set models")


def cmd_gen(args) -> int:
    if args.model not in GRAPH_MODELS + ("fs",):
        raise UsageError(f"gen cannot produce model {args.model!r}")
    target = out_dir(args)
    if args.model in GRAPH_MODELS:
        bundle = ModelBundle(args)
        graphs.write_graph(target / "model.graph.txt", bundle.graph)
        print(f"wrote {target / 'model.graph.txt'} "
              f"({bundle.graph.n} vertices, {len(bundle.graph.edges)} edges)")
    elif args.model == "fs":
        model, evidence = families.gen_friends_smokers(
            args.people, args.evidence_fraction, args.seed)
        (target / "model.clauses.txt").write_text(
            clauses.format_clause_file(model))
        (target / "model.evidence.txt").write_text(
            clauses.format_evidence_file(evidence))
        print(f"wrote {target / 'model.clauses.txt'} "
              f"({model.n} variables, {len(model.clauses)} clauses, "
              f"{len(evidence)} evidence assignments)")
    return 0


def cmd_detect(args) -> int:
    bundle = ModelBundle(args)
    group = bundle.group
    print(f"model: {args.model}")
    print(f"domain size: {group.n}")
    print(f"generators ({len(group.generators)}):")
    names = bundle.names if group.n == len(bundle.names) else None
    for g in group.generators:
        print(f"  {perm.format_cycles(g, names)}")
    try:
        order = group.order()
        print(f"group order: {order}")
    except GuardExceededError:
        print("group order: not enumerated (guard exceeded)")
        order = None

    if bundle.kind in GRAPH_MODELS:
        try:
            orbits = perm.config_orbit_partition(group)
            hist = collections.Counter(len(o) for o in orbits)
            card = ",".join(str(c) for c in sorted(hist))
            print(f"configuration orbits: {len(orbits)} (cardinalities: {card})")
            if order is not None:
                check = perm.burnside_config_orbit_count(group)
                tag = "agrees" if check == len(orbits) else "DISAGREES"
                print(f"burnside cross-check: {check} ({tag})")
        except GuardExceededError:
            print("configuration orbits: skipped (guard exceeded)")
    else:
        report = bundle.report
        print(f"variable orbits: {len(report.variable_orbits)}")
        for cell in report.variable_orbit_names():
            print("  {" + " ".join(cell) + "}")
        print(f"feature orbits: {len(report.feature_orbits)}")
        for orb in report.feature_orbits:
            print("  {" + " ".join(f"c{j}" for j in sorted(orb.elements)) + "}")
    if args.out:
        target = out_dir(args)
        perm.save_generating_set(target / "generators.txt", group, bundle.names)
        print(f"wrote {target / 'generators.txt'}")
    return 0


def cmd_sample(args) -> int:
    bundle = ModelBundle(args)
    target = out_dir(args)
    mode = perm.SamplerMode(args.mode)
    for kind in bundle.chain_kinds(args.chain):
        group = bundle.group if kind.is_orbital else None
        for seed in args.seeds:
            trace = chains.run_chain(bundle.chain_model, kind, args.steps,
                                     seed, record_every=args.record_every,
                                     group=group, mode=mode)
            path = target / f"trace_{kind.value}_seed{seed}.csv"
            trace.to_csv(path)
            rate = (args.steps / trace.elapsed_seconds
                    if trace.elapsed_seconds > 0 else float("inf"))
            print(f"{path}: {args.steps} steps, {rate:,.0f} steps/s")
    return 0


def cmd_exact(args) -> int:
    bundle = ModelBundle(args)
    target = out_dir(args)
    dist = bundle.exact_distribution()
    dist.to_csv(target / "pi.csv")
    print(f"wrote {target / 'pi.csv'} ({len(dist)} states, Z={dist.partition_value:g})")
    for kind in bundle.chain_kinds(args.chain):
        group = bundle.group if kind.is_orbital else None
        matrix = analysis.transition_matrix(bundle.chain_model, kind, group=group)
        path = target / f"matrix_{kind.value}.csv"
        matrix.to_csv(path)
        balance = analysis.check_detailed_balance(matrix, dist, tol=1e-10)
        print(f"wrote {path} (detailed balance violation "
              f"{balance.max_violation:.3e})")
    return 0


def cmd_tvcurve(args) -> int:
    bundle = ModelBundle(args)
    target = out_dir(args)
    dist = bundle.exact_distribution()
    mode = perm.SamplerMode(args.mode)
    step = max(1, (args.steps + 1) // CHECKPOINT_COUNT)
    checkpoints = list(range(step, args.steps + 2, step))
    series = []
    for kind in bundle.chain_kinds(args.chain):
        group = bundle.group if kind.is_orbital else None
        for seed in args.seeds:
            trace = chains.run_chain(bundle.chain_model, kind, args.steps,
                                     seed, group=group, mode=mode)
            curve = analysis.tv_curve(trace, dist, checkpoints)
            series.append(curve)
            print(f"{kind.value} seed {seed}: final d_tv "
                  f"{curve.points[-1][1]:.4f}, auc {curve.auc():,.1f}")
    analysis.tv_curve_csv(target / "tvcurve.csv", series)
    print(f"wrote {target / 'tvcurve.csv'}")
    return 0


def cmd_coupling(args) -> int:
    bundle = ModelBundle(args)
    if bundle.kind not in GRAPH_MODELS:
        raise UsageError("coupling runs on independent-set models only")
    target = out_dir(args)
    report = analysis.coupling_drift(bundle.chain_model, bundle.group,
                                     trials=args.trials, seed=args.seeds[0])
    report.to_csv(target / "coupling.csv")
    ok = report.expected_drift <= report.bound + 3 * report.drift_se
    print(f"rho={report.rho:.6f} varrho={report.varrho:.6f}")
    print(f"measured drift {report.expected_drift:.6f} (se {report.drift_se:.6f})"
          f" vs bound {report.bound:.6f}: {'ok' if ok else 'VIOLATED'}")
    print(f"wrote {target / 'coupling.csv'}")
    return 0


def cmd_mix(args) -> int:
    bundle = ModelBundle(args)
    target = out_dir(args)
    dist = bundle.exact_distribution()
    rows = []
    for kind in bundle.chain_kinds(args.chain):
        group = bundle.group if kind.is_orbital else None
        matrix = analysis.transition_matrix(bundle.chain_model, kind, group=group)
        for eps in args.epsilon:
            tau = analysis.mixing_time(matrix, dist, eps)
            bound = ""
            within = ""
            if bundle.kind == "complete":
                n = bundle.graph.n
                bound = n * math.log(n / eps)
                within = tau <= bound
            rows.append((kind.value, eps, tau, bound, within))
            note = f" (bound {bound:.1f}, within={within})" if bound else ""
            print(f"{kind.value} eps={eps}: tau={tau}{note}")
    with open(target / "mix.csv", "w") as fh:
        fh.write("chain_kind,epsilon,tau,bound,within_bound\n")
        for kind, eps, tau, bound, within in rows:
            b = f"{bound:.6f}" if bound != "" else ""
            fh.write(f"{kind},{eps},{tau},{b},{within}\n")
    print(f"wrote {target / 'mix.csv'}")
    return 0


def build_parser() -> Parser:
    parser = Parser(prog="orbital-mcmc",
                    description="Symmetry-aware sampling toolkit")
    parser.add_argument("--config", help="key=value file with flag defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="write a model to disk")
    p.add_argument("--model", choices=GRAPH_MODELS + ("fs",))
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--people", type=int, default=4)
    p.add_argument("--evidence-fraction", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("detect", help="compute and print model symmetries")
    add_model_flags(p, with_lambda=False)
    p.add_argument("--out", help="also write the generating set here")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("sample", help="run chains and write traces")
    add_model_flags(p)
    p.add_argument("--chain", default="id")
    p.add_argument("--steps", type=int, default=10000)
    p.add_argument("--seeds", type=parse_seeds, default=[0])
    p.add_argument("--mode", choices=["exact", "pr"], default="pr")
    p.add_argument("--record-every", type=int, default=1)
    p.add_argument("--out")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("exact", help="write exact pi and transition matrices")
    add_model_flags(p)
    p.add_argument("--chain", default="id")
    p.add_argument("--out")
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("tvcurve", help="TV distance of cumulative samples")
    add_model_flags(p)
    p.add_argument("--chain", default="id,orbital-id")
    p.add_argument("--steps", type=int, default=100000)
    p.add_argument("--seeds", type=parse_seeds, default=[0])
    p.add_argument("--mode", choices=["exact", "pr"], default="pr")
    p.add_argument("--out")
    p.set_defaults(func=cmd_tvcurve)

    p = sub.add_parser("coupling", help="coupled-chain drift report")
    add_model_flags(p)
    p.add_argument("--trials", type=int, default=100000)
    p.add_argument("--seeds", type=parse_seeds, default=[0])
    p.add_argument("--out")
    p.set_defaults(func=cmd_coupling)

    p = sub.add_parser("mix", help="mixing time of the exact kernel")
    add_model_flags(p)
    p.add_argument("--chain", default="orbital-id")
    p.add_argument("--epsilon", type=lambda s: [float(x) for x in s.split(",")],
                   default=[0.1, 0.01])
    p.add_argument("--out")
    p.set_defaults(func=cmd_mix)
    parser.command_parsers = list(sub.choices.values())
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            parsers = [parser] + parser.command_parsers
            known = {a.dest for p in parsers for a in p._actions
                     if a.option_strings and a.default is not argparse.SUPPRESS}
            defaults = load_config(args.config, known)
            # subcommands parse into their own namespace, so defaults must
            # land on every command parser, not just the root
            for p in parsers:
                p.set_defaults(**defaults)
            args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except GuardExceededError as exc:
        print(f"guard exceeded: {exc}", file=sys.stderr)
        return 2
    except InfeasibleModelError as exc:
        print(f"model infeasible: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
