"""Command-line front end: model generation, symmetry detection, sampling,
exact kernels, TV curves, coupling drift, and mixing times.  Every file
under `--out` is named by `out_file`, whose first call creates `--out` and
writes `config.resolved.txt`: a run that exits before its first result file
leaves no `--out`.

Exit codes: 0 success, 1 usage or input error, 2 enumeration guard
exceeded, 3 model infeasible.
"""

from __future__ import annotations

import argparse
import collections
import csv
import functools
import math
import sys
from pathlib import Path

from . import analysis, autgroup, chains, clauses, families, graphs, perm
from .errors import GuardExceededError, InfeasibleModelError, enumeration_cap

GRAPH_MODELS = ("grid", "cliques", "complete")
CHECKPOINT_COUNT = 50
_LABEL = bytes.maketrans(b"\x00\x01", b"01")  # state bytes to the digits of its label


class UsageError(Exception):
    pass


class Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _parse_list(text: str, cast, flag: str) -> list:
    """Comma-separated `cast` values, empty items skipped; a repeat would run twice."""
    values = [cast(tok) for tok in text.split(",") if tok.strip()]
    if len(set(values)) < len(values):
        raise UsageError(f"{flag} lists a value twice: {text}")
    return values


def parse_seeds(text: str) -> list[int]:
    """Either a count N (seeds 0..N-1) or a comma-separated list."""
    seeds = _parse_list(text, int, "--seeds") if "," in text else list(range(int(text)))
    if not seeds:
        raise UsageError("need at least one seed")
    return seeds


def checked(cast, accept, need: str):
    """An argparse type: `cast` of the text if `accept` passes it, before any
    file is written; a text that fails either is reported as not `need`."""
    def value(text: str):
        try:
            if accept(result := cast(text)):
                return result
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be {need}, got {text}")
    return value


def at_least(low: int):
    """An argparse type: an integer of at least `low`."""
    return checked(int, lambda value: value >= low, f"at least {low}")


def load_config(path: str, known: set) -> dict:
    """Flat key=value file; '#' starts a comment line.

    Values stay strings: argparse converts a string default with the
    matching flag's own type.  A key outside `known` (the flag names of all
    commands) is a usage error; a key that only some commands have is kept,
    for `main` to give to those commands alone.
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


def write_csv(path: Path, header: list, rows) -> None:
    """`header`, then each row, in the csv module's default dialect, whose
    lines end in CR LF."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def state_label(state: perm.Config) -> str:
    return state.translate(_LABEL).decode()


def out_path(args) -> Path:
    """`--out` as a path, a usage error when it is missing; nothing is created."""
    if not getattr(args, "out", None):
        raise UsageError("--out is required")
    return Path(args.out)


def out_file(args, name: str) -> Path:
    """The path of result file `name` under `--out`.  The first call in a run
    creates `--out` and writes `config.resolved.txt` there, one key=value
    line per flag that has a value, which `--config` reads back."""
    target = out_path(args)
    if not getattr(args, "out_made", False):
        lines = []
        for key, value in sorted(vars(args).items()):
            if key not in ("func", "config", "command") and value is not None:
                if isinstance(value, list):  # one value keeps a comma: seeds 5, not 0..4
                    value = ",".join(map(str, value)) + ("," if len(value) == 1 else "")
                lines.append(f"{key}={value}")
        target.mkdir(parents=True, exist_ok=True)
        (target / "config.resolved.txt").write_text("\n".join(lines) + "\n")
        args.out_made = True
    return target / name


class ModelBundle:
    """A resolved model, the chain kinds listed in `chain` checked against
    its class, and everything else the commands need from it."""

    def __init__(self, args, chain: str = ""):
        self.kind = args.model
        if self.kind is None:
            raise UsageError("--model is required")
        self.lam = getattr(args, "lam", 1.0)  # detect and gen have no --lambda
        if self.kind in GRAPH_MODELS:
            given = [f"--{f}" for f in ("clauses", "evidence") if getattr(args, f, None)]
            if given:
                raise UsageError(f"{given[0]} is for --model clauses only, not {self.kind}")
            maker = {"grid": families.gen_grid,
                     "cliques": families.gen_connected_cliques,
                     "complete": families.gen_complete}[self.kind]
            self.graph = maker(args.k)
            self.names = list(self.graph.names)
            model_class = chains.IndependentSetModel
        elif self.kind == "clauses":
            if not getattr(args, "clauses", None):
                raise UsageError("--model clauses requires --clauses FILE")
            text = Path(args.clauses).read_text()
            self.clause_set = clauses.parse_clause_file(text)
            self.evidence = {}
            if getattr(args, "evidence", None):
                self.evidence = clauses.parse_evidence_file(
                    Path(args.evidence).read_text())
            self.names = list(self.clause_set.variables)
            model_class = chains.ClauseModel
        else:
            raise UsageError(f"unknown model {self.kind!r}")
        self.kinds = []
        for token in _parse_list(chain, str.strip, "--chain"):
            try:
                kind = chains.ChainKind(token)
                kind.check(model_class)
            except ValueError:
                raise UsageError(f"unknown chain {token!r}; choose from "
                                 f"{', '.join(chains.ChainKind)}") from None
            except TypeError as exc:
                raise UsageError(f"chain {kind.value} does not match model "
                                 f"{self.kind}: {exc}") from None
            self.kinds.append(kind)

    @functools.cached_property
    def chain_model(self):
        # built on first use: a clause model scans for a state satisfying
        # the hard clauses, exponential in the worst case, and detect runs
        # no chain
        if self.kind in GRAPH_MODELS:
            return chains.IndependentSetModel(self.graph, self.lam)
        return chains.ClauseModel(self.clause_set, self.evidence)

    # detection runs on first use, once: a command that needs no group, or
    # exits on a usage error first, never pays for it
    @functools.cached_property
    def report(self) -> clauses.SymmetryReport:
        return clauses.model_symmetry_group(self.clause_set, self.evidence)

    @functools.cached_property
    def group(self) -> perm.PermutationGroup:
        if self.kind in GRAPH_MODELS:
            return autgroup.automorphism_generators(self.graph)
        return self.report.model_group


def chain_bundle(args) -> ModelBundle:
    """The bundle of a command that runs chains: a `--chain` that lists none
    is a usage error."""
    bundle = ModelBundle(args, args.chain)
    if not bundle.kinds:
        raise UsageError(f"--chain lists no chain kind: {args.chain!r}")
    return bundle


def add_model_flags(sub, with_lambda=True):
    sub.add_argument("--model", choices=GRAPH_MODELS + ("clauses",))
    sub.add_argument("--k", type=at_least(2), default=3, help="size parameter")
    sub.add_argument("--clauses", help="clause file for --model clauses")
    sub.add_argument("--evidence", help="evidence file for --model clauses")
    if with_lambda:
        sub.add_argument("--lambda", dest="lam", default=1.0,
                         type=checked(float, lambda lam: 0 < lam < math.inf,
                                      "finite and positive"),
                         help="fugacity for independent-set models")


def cmd_gen(args) -> int:
    if args.model not in GRAPH_MODELS + ("fs",):
        raise UsageError(f"gen cannot produce model {args.model!r}")
    if args.model in GRAPH_MODELS:
        bundle = ModelBundle(args)
        path = out_file(args, "model.graph.txt")
        path.write_text(graphs.format_graph(bundle.graph))
        print(f"wrote {path} "
              f"({bundle.graph.n} vertices, {len(bundle.graph.edges)} edges)")
    elif args.model == "fs":
        model, evidence = families.gen_friends_smokers(
            args.people, args.evidence_fraction, args.seed)
        path = out_file(args, "model.clauses.txt")
        path.write_text(clauses.format_clause_file(model))
        out_file(args, "model.evidence.txt").write_text(
            clauses.format_evidence_file(evidence))
        print(f"wrote {path} "
              f"({model.n} variables, {len(model.clauses)} clauses, "
              f"{len(evidence)} evidence assignments)")
    return 0


def cmd_detect(args) -> int:
    bundle = ModelBundle(args)
    group = bundle.group
    print(f"model: {args.model}")
    print(f"domain size: {group.n}")
    print(f"generators ({len(group.generators)}):")
    for g in group.generators:
        print(f"  {perm.format_cycles(g, bundle.names)}")
    print(f"group order: {group.order()}")

    if bundle.kind in GRAPH_MODELS:
        try:
            orbits = perm.config_orbit_partition(group)
        except GuardExceededError:
            print("configuration orbits: skipped (guard exceeded)")
        else:
            hist = collections.Counter(len(o) for o in orbits)
            card = ",".join(str(c) for c in sorted(hist))
            print(f"configuration orbits: {len(orbits)} (cardinalities: {card})")
            try:
                check = perm.burnside_config_orbit_count(group)
            except GuardExceededError:
                print("burnside cross-check: skipped (guard exceeded)")
            else:
                tag = "agrees" if check == len(orbits) else "DISAGREES"
                print(f"burnside cross-check: {check} ({tag})")
    else:
        report = bundle.report
        print(f"variable orbits: {len(report.variable_orbits)}")
        for orb in report.variable_orbits:
            print("  {" + " ".join(bundle.names[i] for i in orb) + "}")
        print(f"feature orbits: {len(report.feature_orbits)}")
        for orb in report.feature_orbits:
            print("  {" + " ".join(f"c{j}" for j in orb) + "}")
    if args.out:
        path = out_file(args, "generators.txt")
        path.write_text(perm.format_generating_set(group, bundle.names))
        print(f"wrote {path}")
    return 0


def run_chains(bundle: ModelBundle, args, record_every: int = 1):
    """Yield (kind, seed, trace) for each chain kind, then each seed."""
    mode = perm.SamplerMode(args.mode)
    # EXACT mode's element array, kept for the sampler: past the cap, exit 2 before any chain
    if mode is perm.SamplerMode.EXACT and any(kind.is_orbital for kind in bundle.kinds):
        bundle.group.image_array()
    for kind in bundle.kinds:
        group = bundle.group if kind.is_orbital else None
        for seed in args.seeds:
            yield kind, seed, chains.run_chain(bundle.chain_model, kind, args.steps, seed,
                                               record_every=record_every, group=group,
                                               mode=mode)


def cmd_sample(args) -> int:
    bundle = chain_bundle(args)
    out_path(args)
    for kind, seed, trace in run_chains(bundle, args, args.record_every):
        path = out_file(args, f"trace_{kind.value}_seed{seed}.csv")
        write_csv(path, ["step", "state"],
                  ((i * args.record_every, state_label(state))
                   for i, state in enumerate(trace.states)))
        rate = (args.steps / trace.elapsed_seconds
                if trace.elapsed_seconds > 0 else float("inf"))
        print(f"{path}: {args.steps} steps, {rate:,.0f} steps/s")
    return 0


def cmd_exact(args) -> int:
    bundle = ModelBundle(args, args.chain)
    out_path(args)
    dist = analysis.exact_distribution(bundle.chain_model)
    if bundle.kinds:
        analysis.check_dense_kernel(len(dist))
    labels = [state_label(state) for state in dist.states]
    path = out_file(args, "pi.csv")
    write_csv(path, ["state", "prob"], zip(labels, map(repr, dist.probs.tolist())))
    print(f"wrote {path} ({len(dist)} states, Z={dist.partition_value:g})")
    for kind in bundle.kinds:
        group = bundle.group if kind.is_orbital else None
        matrix = analysis.transition_matrix(bundle.chain_model, kind, group=group)
        path = out_file(args, f"matrix_{kind.value}.csv")
        write_csv(path, ["state"] + labels,
                  ([label, *map(repr, row.tolist())]
                   for label, row in zip(labels, matrix.rows)))
        balance = analysis.check_detailed_balance(matrix, dist, tol=1e-10)
        print(f"wrote {path} (detailed balance violation "
              f"{balance.max_violation:.3e})")
    return 0


def cmd_tvcurve(args) -> int:
    bundle = chain_bundle(args)
    out_path(args)
    dist = analysis.exact_distribution(bundle.chain_model)
    step = max(1, (args.steps + 1) // CHECKPOINT_COUNT)
    checkpoints = list(range(step, args.steps + 2, step))
    rows = []
    for kind, seed, trace in run_chains(bundle, args):
        curve = analysis.tv_curve(trace, dist, checkpoints)
        rows += [(used, repr(dtv), kind.value, seed) for used, dtv in curve.points]
        print(f"{kind.value} seed {seed}: final d_tv "
              f"{curve.points[-1][1]:.4f}, auc {curve.auc():,.1f}")
    path = out_file(args, "tvcurve.csv")
    write_csv(path, ["samples", "d_tv", "chain_kind", "seed"], rows)
    print(f"wrote {path}")
    return 0


def cmd_coupling(args) -> int:
    if len(args.seeds) != 1:
        raise UsageError("coupling takes one seed: give it as a list, such as "
                         "--seeds 42, (a bare count N means seeds 0..N-1)")
    bundle = ModelBundle(args, chains.ChainKind.ORBITAL_INSERT_DELETE.value)
    out_path(args)
    report = analysis.coupling_drift(bundle.chain_model, bundle.group,
                                     trials=args.trials, seed=args.seeds[0])
    path = out_file(args, "coupling.csv")
    write_csv(path,
              ["case", "count", "rho", "varrho", "drift", "bound"],
              ((case, count, repr(report.rho), repr(report.varrho),
                repr(report.expected_drift), repr(report.bound))
               for case, count in sorted(report.case_counts.items())))
    ok = report.expected_drift <= report.bound + 3 * report.drift_se
    print(f"rho={report.rho:.6f} varrho={report.varrho:.6f}")
    print(f"measured drift {report.expected_drift:.6f} (se {report.drift_se:.6f})"
          f" vs bound {report.bound:.6f}: {'ok' if ok else 'VIOLATED'}")
    print(f"wrote {path}")
    return 0


def cmd_mix(args) -> int:
    bundle = chain_bundle(args)
    out_path(args)
    dist = analysis.exact_distribution(bundle.chain_model)
    rows = []
    for kind in bundle.kinds:
        # with the group, base kernels too mix on one row per state orbit
        matrix = analysis.transition_matrix(bundle.chain_model, kind, group=bundle.group)
        for eps in args.epsilon:
            tau = analysis.mixing_time(matrix, dist, eps)
            bound = within = note = ""
            if bundle.kind == "complete":
                n = bundle.graph.n
                limit = n * math.log(n / eps)
                within = tau <= limit
                bound = f"{limit:.6f}"
                note = f" (bound {limit:.1f}, within={within})"
            rows.append((kind.value, eps, tau, bound, within))
            print(f"{kind.value} eps={eps}: tau={tau}{note}")
    path = out_file(args, "mix.csv")
    write_csv(path, ["chain_kind", "epsilon", "tau", "bound", "within_bound"], rows)
    print(f"wrote {path}")
    return 0


def build_parser() -> Parser:
    parser = Parser(prog="orbital-mcmc",
                    description="Symmetry-aware sampling toolkit")
    parser.add_argument("--config", help="key=value file with flag defaults")
    sub = parser.add_subparsers(dest="command", required=True)
    modes = [mode.value for mode in perm.SamplerMode]

    p = sub.add_parser("gen", help="write a model to disk")
    p.add_argument("--model", choices=GRAPH_MODELS + ("fs",))
    p.add_argument("--k", type=at_least(2), default=3)
    p.add_argument("--people", type=at_least(2), default=4)
    p.add_argument("--evidence-fraction", default=0.0,
                   type=checked(float, lambda fraction: 0 <= fraction <= 1, "in [0, 1]"))
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
    p.add_argument("--steps", type=at_least(0), default=10000)
    p.add_argument("--seeds", type=parse_seeds, default=[0])
    p.add_argument("--mode", choices=modes, default="pr")
    p.add_argument("--record-every", type=at_least(1), default=1)
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
    p.add_argument("--steps", type=at_least(0), default=100000)
    p.add_argument("--seeds", type=parse_seeds, default=[0])
    p.add_argument("--mode", choices=modes, default="pr")
    p.add_argument("--out")
    p.set_defaults(func=cmd_tvcurve)

    p = sub.add_parser("coupling", help="coupled-chain drift report")
    add_model_flags(p)
    p.add_argument("--trials", type=at_least(1), default=100000)
    p.add_argument("--seeds", type=parse_seeds, default=[0])
    p.add_argument("--out")
    p.set_defaults(func=cmd_coupling)

    p = sub.add_parser("mix", help="mixing time of the exact kernel")
    add_model_flags(p)
    p.add_argument("--chain", default="orbital-id")
    p.add_argument("--epsilon", type=checked(lambda text: _parse_list(text, float, "--epsilon"),
                                             lambda eps: eps and all(0 < e < 1 for e in eps),
                                             "values in (0, 1)"),
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
            flags = {p: {a.dest for a in p._actions
                         if a.option_strings and a.default is not argparse.SUPPRESS}
                     for p in [parser] + parser.command_parsers}
            defaults = load_config(args.config, set().union(*flags.values()))
            # commands parse into their own namespace: each parser takes
            # the keys of its own flags only
            for p, dests in flags.items():
                p.set_defaults(**{key: defaults[key] for key in dests & defaults.keys()})
            args = parser.parse_args(argv)
        enumeration_cap()  # a bad ORBITAL_GUARD fails here, before any output
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
