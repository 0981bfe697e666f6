"""Command-line front end: dataset generation, campaigns, and reports.

Subcommands: gen, partition, run, report, oracle, ttest.  Exit codes:
0 success, 2 configuration error, 3 numerical or budget failure, 1 any
other package error (a frame that fails to decode or breaks the protocol).
Campaign points may run in a thread pool capped by DDPP_THREADS.
"""

import argparse
import collections
import csv as csvmod
import functools
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack

import numpy as np

from . import __version__, data, dpp, engine, metrics
from .errors import (BudgetViolationError, DdppError, DegenerateInputError,
                     IngestError, InvalidConfigError, InvalidInputError,
                     NotPositiveDefiniteError, NotPsdError,
                     ScalingViolationError, TooLargeError)

EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

_NUMERICAL_ERRORS = (BudgetViolationError, NotPositiveDefiniteError,
                     NotPsdError, ScalingViolationError)


def _open(path, error):
    """``open(path)`` for reading; a file that cannot be opened is ``error``."""
    try:
        return open(path, errors="replace")  # bad bytes fail the caller's parse
    except OSError as exc:
        raise error(f"cannot read {path}: {exc.strerror}") from None


def _make_out(path, file=False):
    """Make ``--out``: a directory, or with ``file`` a file, returned open
    to write.  One that cannot be made is a configuration error."""
    try:
        return open(path, "w") if file else os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise InvalidConfigError(f"cannot make --out {path}: {exc.strerror}") from None


def _check_out(path, file=False):
    """Refuse, making nothing, an ``--out`` ``_make_out`` could not make: a file's
    directory, or a directory's nearest existing ancestor, must be writable,
    and a file must not be an existing directory."""
    head = os.path.abspath(path)
    if file:
        if os.path.isdir(head):
            raise InvalidConfigError(f"cannot make --out {path}: Is a directory")
        head = os.path.dirname(head)
    else:
        while not os.path.lexists(head):
            head = os.path.dirname(head)
    if not (os.path.isdir(head) and os.access(head, os.W_OK | os.X_OK)):
        reason = ("Permission denied" if os.path.isdir(head) else "Not a directory"
                  if os.path.lexists(head) else "No such file or directory")
        raise InvalidConfigError(f"cannot make --out {path}: {reason}")


class _Parser(argparse.ArgumentParser):
    """A parser whose refusals are configuration errors: one error line, exit 2."""

    def error(self, message):
        raise InvalidConfigError(message)


class _Numbers:
    """A flag's parse: a ``kind`` number, at least ``low`` if given, or with
    ``many`` a comma-separated list of one or more of them."""

    def __init__(self, kind, low=None, many=False):
        self.kind, self.low, self.many = kind, low, many
        self.__name__ = kind.__name__  # argparse names a bad value's type by it

    def __call__(self, text):
        values = ([self.kind(v) for v in text.split(",") if v] if self.many
                  else [self.kind(text)])
        if not values:
            raise argparse.ArgumentTypeError("need at least one value")
        if self.low is not None and min(values) < self.low:
            raise argparse.ArgumentTypeError(
                f"must be at least {self.low}, got {min(values)}")
        return values if self.many else values[0]


Setting = collections.namedtuple("Setting", "flag parse defaults help", defaults=[None])
REQUIRED = object()  # the default of a flag that must be given
SEED, COUNT = _Numbers(int, 0), _Numbers(int, 1)

# One row per flag: its parse (a function holding any domain the CLI checks,
# ``bool`` for a switch, or a tuple of the values allowed) and its default in
# each command that takes it.  A domain a public API checks is left to it.
SETTINGS = (
    Setting("--out", str, dict.fromkeys(("gen", "partition", "run", "report"), REQUIRED)),
    Setting("--config", str, {"run": None}, "key=value file; flags win"),
    Setting("--data", str, {"partition": REQUIRED, "run": None, "oracle": REQUIRED},
            "dataset file (else synthetic)"),
    Setting("--label-column", bool, dict.fromkeys(("partition", "run", "oracle"), False)),
    Setting("--partition-file", str, {"run": None}),
    Setting("--partition-seed", SEED, {"run": 0}),
    Setting("--results", str, dict.fromkeys(("report", "ttest"), REQUIRED)),
    Setting("--n", COUNT, {"gen": None}, "total samples (default sources*ni)"),
    Setting("--sources", COUNT, {"gen": 10, "partition": REQUIRED}),
    Setting("--seed", SEED, {"gen": 0, "partition": 0}),
    Setting("--strategies", lambda text: text.split(","), {"run": ["ddpp", "greedi"]}),
    Setting("--seeds", COUNT, {"run": 20}, "seed count 0..n-1"),
    Setting("--seed-list", _Numbers(int, 0, many=True), {"run": None},
            "explicit seeds, comma separated"),
    Setting("--N", _Numbers(int, many=True), {"run": [10]}, "source count sweep"),
    Setting("--R", _Numbers(float, many=True), {"run": None},
            "sparsity sweep (default 0.75*kT/tT)"),
    Setting("--kT", int, {"run": 120}),
    Setting("--tT", COUNT, {"run": 2}),  # before it divides the default R
    Setting("--epsilon", float, {"run": 1e-6}),
    Setting("--block-fraction", float, {"run": 0.5}),
    Setting("--compression", engine.COMPRESSIONS, {"run": "proposed"}),
    Setting("--no-momentum", bool, {"run": False}),
    Setting("--transport", ("loopback", "tcp"), {"run": "loopback"}),
    Setting("--ni", COUNT, {"gen": 500, "run": 500}, "samples per source"),
    Setting("--m", COUNT, {"gen": 64, "run": 64}, "feature dimensions"),
    Setting("--clusters", int, {"gen": 20, "run": 20}),
    Setting("--spread", float, {"gen": 0.06, "run": 0.06}),
    Setting("--scale", float, {"gen": 10.0, "run": 10.0}),
    Setting("--radius-jitter", float, {"gen": 0.2, "run": 0.2}),
    Setting("--norm-tail", float, {"gen": 0.4, "run": 0.4}),
    Setting("--mean-sparsity", float, {"gen": 0.3, "run": 0.3}),
    Setting("--partition-policy", ("uniform_random", "cluster_skewed"),
            {"gen": "cluster_skewed", "partition": "uniform_random", "run": None}),
    Setting("--skew", float, {"gen": 0.1, "partition": 0.5, "run": 0.1}),
    Setting("--pairs", str, {"report": "ddpp:greedi"},
            "t-test pairs, e.g. ddpp:greedi,ddpp:random"),
    Setting("--pca-seed", int, {"report": None}),
    Setting("--pca-strategy", str, {"report": "ddpp"}),
    Setting("--k", COUNT, {"oracle": REQUIRED}),
    Setting("--a", str, {"ttest": REQUIRED}),
    Setting("--b", str, {"ttest": REQUIRED}),
    Setting("--metric", str, {"ttest": "rde"}),
)


def _run_flags(settings):
    """``(where, key, value)`` text settings as flags of ``run``: ``--key=value``,
    or a switch's bare flag when its value is on.  A key names any ``run``
    flag but ``--config``; ``where`` heads the error that refuses one."""
    parse = {row.flag: row.parse for row in SETTINGS
             if "run" in row.defaults and row.flag != "--config"}
    flags = []
    for where, key, value in settings:
        flag = "--" + key.replace("_", "-")
        if flag not in parse:
            raise InvalidConfigError(f"{where}: no config key {key!r}")
        if parse[flag] is not bool:
            flags.append(f"{flag}={value}")
        elif value.lower() in ("1", "true", "yes", "on"):
            flags.append(flag)
        elif value.lower() not in ("0", "false", "no", "off"):
            raise InvalidConfigError(f"{where}: switch {key} is not "
                                     f"1/true/yes/on or 0/false/no/off: {value!r}")
    return flags


def _config_lines(path):
    """A config file's ``key=value`` settings; blank lines and # comments are ignored."""
    with _open(path, InvalidConfigError) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if line and not line.startswith("#"):
                if "=" not in line:
                    raise InvalidConfigError(f"{path}:{lineno}: expected key=value")
                key, _, value = (part.strip() for part in line.partition("="))
                yield f"{path}:{lineno}", key, value


def _manifest(results):
    """The path and ``resolved`` object of the manifest beside ``results``."""
    path = os.path.join(os.path.dirname(os.path.abspath(results)), "manifest.json")
    with _open(path, InvalidConfigError) as fh:
        try:
            resolved = json.load(fh)["resolved"]
        except (ValueError, TypeError, KeyError):  # not JSON, not an object, or none
            resolved = None
    if not isinstance(resolved, dict):
        raise InvalidConfigError(f"{path}: not a JSON object with a 'resolved' object")
    return path, resolved


def _manifest_settings(path, resolved):
    """``run``'s settings as the manifest in ``--out`` resolved them, parsed as
    flags; each but ``out`` and ``config`` must be there and parse back to itself."""
    keys = [row.flag[2:].replace("-", "_") for row in SETTINGS
            if "run" in row.defaults and row.flag not in ("--out", "--config")]
    if missing := [k for k in keys if k not in resolved]:
        raise InvalidConfigError(f"{path}: no {missing[0]!r} setting")
    flags = _run_flags((path, k, ",".join(map(str, v)) if type(v) is list else str(v))
                       for k in keys if (v := resolved[k]) is not None)
    try:
        settings = _parser().parse_args(["run", "--out", os.path.dirname(path), *flags])
    except InvalidConfigError as exc:
        raise InvalidConfigError(f"{path}: {exc}") from None
    if wrong := [k for k in keys if getattr(settings, k) != resolved[k]]:
        raise InvalidConfigError(f"{path}: {wrong[0]} = {resolved[wrong[0]]!r} "
                                 "is not a value its flag parses to")
    return settings


def _mixture(args):
    """The generator settings ``run`` and ``gen`` pass on as they are."""
    return dict(spread=args.spread, scale=args.scale,
                radius_jitter=args.radius_jitter, norm_tail=args.norm_tail)


def _read_data(args):
    """(features, labels) of the ``--data`` file; the format follows its name."""
    fmt = "ddpm" if args.data.endswith(".ddpm") else "csv"
    return data.load_features(args.data, fmt=fmt, label_column=args.label_column)


def _partition(args, n_sources, seed, loaded=None):
    """A campaign point's split, made as its dataset makes it.

    A synthetic point's is ``seed``'s split of the generator's labels, which
    checks every generator setting.  A ``--data`` point's (``loaded``, the
    file's features and labels) is the partition file, else the policy (by
    default cluster_skewed if labels exist); it takes no unit seed.
    """
    if loaded is None:
        n = n_sources * args.ni
        labels = data._mixture_labels(n, args.clusters, args.mean_sparsity,
                                      **_mixture(args))
        return data.partition(n, n_sources,
                              policy=args.partition_policy or "cluster_skewed",
                              seed=seed, cluster_labels=labels, skew=args.skew)
    Z, labels = loaded
    if args.partition_file:
        with _open(args.partition_file, IngestError) as fh:
            return data.SourcePartition.from_json(fh.read()).validate(Z.shape[0])
    policy = args.partition_policy or (
        "cluster_skewed" if labels is not None else "uniform_random")
    return data.partition(Z.shape[0], n_sources, policy=policy,
                          seed=args.partition_seed, cluster_labels=labels,
                          skew=args.skew)


def _dataset(args, seed, n_sources, loaded=None):
    """A campaign point's dataset, rescaled: the ``--data`` file (``loaded``
    if read) split by ``_partition`` for every seed, else drawn from ``seed``."""
    if not args.data:
        return data.synth_dataset(
            seed, n_sources, n_sources * args.ni, args.m, args.clusters,
            policy=args.partition_policy or "cluster_skewed", skew=args.skew,
            mean_sparsity=args.mean_sparsity, positivity_k=args.kT,
            **_mixture(args))
    loaded = loaded or _read_data(args)
    return data.Dataset(features=loaded[0], labels=loaded[1],
                        partition=_partition(args, n_sources, None, loaded),
                        positivity_k=args.kT)


def _worker_count():
    raw = os.environ.get("DDPP_THREADS", "1")
    try:
        return COUNT(raw)
    except (ValueError, argparse.ArgumentTypeError):
        raise InvalidConfigError(
            f"DDPP_THREADS must be a positive integer, got {raw!r}") from None


def cmd_gen(args):
    _check_out(args.out)
    n = args.sources * args.ni if args.n is None else args.n
    dataset = data.synth_dataset(
        args.seed, args.sources, n, args.m, args.clusters,
        policy=args.partition_policy, skew=args.skew,
        mean_sparsity=args.mean_sparsity, **_mixture(args))
    _make_out(args.out)
    data.save_ddpm(os.path.join(args.out, "features.ddpm"),
                   dataset.rows(range(n)), dataset.labels)
    with open(os.path.join(args.out, "partition.json"), "w") as fh:
        fh.write(dataset.partition.to_json())
    _write_manifest(args.out, args, extra={"n": n})
    print(f"wrote {args.out}/features.ddpm ({n}x{args.m}) and partition.json")
    return 0


def cmd_partition(args):
    _check_out(args.out, file=True)
    Z, labels = _read_data(args)
    part = data.partition(Z.shape[0], args.sources, policy=args.partition_policy,
                          seed=args.seed, cluster_labels=labels, skew=args.skew)
    with _make_out(args.out, file=True) as fh:
        fh.write(part.to_json())
    print(f"wrote {args.out}")
    return 0


def _unit_configs(args, seed, n_sources, dims):
    """Configs of one campaign unit, one per (R, strategy) pair."""
    return [engine.ExperimentConfig(
        n_sources=n_sources, dims=dims, total_select=args.kT,
        intervals=args.tT, sparsity=R, epsilon=args.epsilon,
        block_fraction=args.block_fraction, strategy=strategy,
        compression=args.compression, seed=seed,
        momentum=not args.no_momentum)
        for R in args.R for strategy in args.strategies]


def _campaign_unit(args, seed, n_sources, dataset=None):
    """All runs sharing one dataset: every (R, strategy) pair for this seed.

    ``dataset`` is a ``--data`` point's, which every seed shares; else the
    unit builds its own.  Returns the lines, the gt cache key and entry.
    """
    if dataset is None:
        dataset = _dataset(args, seed, n_sources)
    gt = engine.run_ground_truth(dataset, args.kT)
    lines = [engine.run_experiment(cfg, dataset, transport=args.transport,
                                   ground_truth=gt).to_json_dict()
             for cfg in _unit_configs(args, seed, n_sources, dataset.dims)]
    gt_key = f"seed={seed},N={n_sources},m={dataset.dims},kT={args.kT}"
    gt_entry = {"indices": [int(i) for i in gt.indices],
                "logdet": engine.ground_truth_logdet(dataset, gt),
                "scale": dataset.scale}
    return lines, gt_key, gt_entry


def cmd_run(args):
    _check_out(args.out)
    seeds = args.seed_list if args.seed_list is not None else list(range(args.seeds))
    if args.R is None:
        args.R = [0.75 * args.kT / args.tT]
    if args.partition_file and not args.data:
        raise InvalidConfigError("--partition-file needs --data")
    loaded = _read_data(args) if args.data else None
    dims = loaded[0].shape[1] if loaded else args.m
    for N in args.N:  # a configuration error exits before any data is made
        _unit_configs(args, seeds[0], N, dims)[0].check_split(
            _partition(args, N, seeds[0], loaded))
    workers = _worker_count()
    results_path = os.path.join(args.out, "results.jsonl")
    gt_cache, fh = {}, None
    with ThreadPoolExecutor(max_workers=workers) as pool, ExitStack() as files:
        for N in args.N:
            # one --data store alive at a time, shared by every seed
            shared = _dataset(args, None, N, loaded) if loaded else None
            futures = [pool.submit(_campaign_unit, args, seed, N, shared)
                       for seed in seeds]
            shared = None
            for fut in futures:
                lines, gt_key, gt_entry = fut.result()
                if fh is None:  # --out is made once a unit has lines to write
                    _make_out(args.out)
                    # single writer, in submission order
                    fh = files.enter_context(open(results_path, "w"))
                fh.writelines(json.dumps(line) + "\n" for line in lines)
                gt_cache[gt_key] = gt_entry
    with open(os.path.join(args.out, "gt_cache.json"), "w") as fh:
        json.dump(gt_cache, fh, indent=1)
    _write_manifest(args.out, args, extra={"seeds": seeds})
    total = len(seeds) * len(args.N) * len(args.R) * len(args.strategies)
    print(f"wrote {total} result lines to {results_path}")
    return 0


def _write_manifest(out_dir, args, extra=None):
    payload = {"tool_version": __version__, "command": args.argv,
               "resolved": {k: v for k, v in sorted(vars(args).items())
                            if k not in ("func", "argv")}}
    payload.update(extra or {})
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(payload, fh, indent=1, default=str)


# The JSON types of the fields report and ttest read; only "m" may be absent.
_RESULT_TYPES = {"strategy": (str,), "seed": (int,), "N": (int,),
                 "R": (int, float), "rde": (int, float, type(None)),
                 "m": (int, type(None))}


def _load_results(path, metric="rde"):
    """The lines of a results file; ``metric`` is a number or null, as rde."""
    types = {**_RESULT_TYPES, metric: _RESULT_TYPES["rde"]}
    lines = []
    with _open(path, InvalidConfigError) as fh:
        for lineno, text in enumerate(fh, 1):
            if not text.strip():
                continue
            try:
                line = json.loads(text)
            except ValueError:
                line = None
            if not isinstance(line, dict):
                raise InvalidConfigError(f"{path}:{lineno}: not a JSON object")
            if missing := [k for k in _RESULT_TYPES if k != "m" and k not in line]:
                raise InvalidConfigError(f"{path}:{lineno}: no {', '.join(missing)}")
            if wrong := [k for k, t in types.items() if type(line.get(k)) not in t]:
                raise InvalidConfigError(f"{path}:{lineno}: wrong type: " + ", ".join(
                    f"{k} = {line[k]!r}" for k in wrong))
            lines.append(line)
    if not lines:
        raise InvalidConfigError(f"no result lines in {path}")
    return lines


def cmd_report(args):
    _check_out(args.out)
    lines = _load_results(args.results)
    pairs = [tuple(p.split(":")) for p in args.pairs.split(",")] if args.pairs else []
    for pair in pairs:
        if len(pair) != 2 or not all(pair):
            raise InvalidConfigError(f"--pairs entry {':'.join(pair)!r} is not a:b")
    # the scatter's dataset is rebuilt first: a bad setting then writes nothing
    scatter = _pca_scatter(args, lines) if args.pca_seed is not None else None
    _make_out(args.out)
    cells = {}
    for line in lines:
        key = (line["strategy"], line["N"], line["R"], line.get("m"))
        cells.setdefault(key, []).append(line["rde"])
    with open(os.path.join(args.out, "summary.csv"), "w", newline="") as fh:
        writer = csvmod.writer(fh)
        writer.writerow(["strategy", "N", "R", "m", "mean_rde", "std_rde", "n"])
        for key in sorted(cells, key=str):
            vals = [v for v in cells[key] if v is not None]
            sd = np.std(vals, ddof=1) if len(vals) > 1 else 0.0
            writer.writerow(list(key) + ([f"{np.mean(vals):.6f}", f"{sd:.6f}", len(vals)]
                                         if vals else ["NA", "NA", 0]))
    with open(os.path.join(args.out, "ttest.csv"), "w", newline="") as fh:
        writer = csvmod.writer(fh)
        writer.writerow(["strategy_a", "strategy_b", "N", "R", "t", "p"])
        for a, b in pairs:
            groups = {}
            for line in lines:
                if line["strategy"] in (a, b) and line["rde"] is not None:
                    groups.setdefault((line["N"], line["R"]), {}).setdefault(
                        line["strategy"], []).append(line["rde"])
            for (N, R), by_strategy in sorted(groups.items()):
                try:
                    t, p = metrics.welch_ttest(by_strategy.get(a, []),
                                               by_strategy.get(b, []))
                    writer.writerow([a, b, N, R, f"{t:.6f}", f"{p:.3e}"])
                except (InvalidInputError, DegenerateInputError):
                    # fewer than two runs of one, or neither varies
                    writer.writerow([a, b, N, R, "NA", "NA"])
    if scatter is not None:
        out_path = os.path.join(args.out, f"pca_seed{args.pca_seed}.csv")
        with open(out_path, "w", newline="") as fh:
            writer = csvmod.writer(fh)
            writer.writerow(["x", "y", "label", "selected"])
            writer.writerows(scatter)
    print(f"wrote report to {args.out}")
    return 0


def _pca_scatter(args, lines):
    """Scatter rows for one seed: x, y, label and a selected flag per sample.

    The dataset is rebuilt the way the run built it: loaded from the run's
    ``--data`` file when it had one, otherwise regenerated from the seed.
    """
    line = next((ln for ln in lines if ln["seed"] == args.pca_seed
                 and ln["strategy"] == args.pca_strategy), None)
    if line is None:
        raise InvalidConfigError(
            f"no result for seed {args.pca_seed} strategy {args.pca_strategy!r}")
    chosen = line.get("selected_indices")
    if type(chosen) is not list or any(type(i) is not int for i in chosen):
        raise InvalidConfigError(f"{args.results}: no integer selected_indices "
                                 f"for seed {args.pca_seed} {args.pca_strategy}")
    dataset = _dataset(_manifest_settings(*args.manifest), args.pca_seed, line["N"])
    coords = metrics.pca2d(dataset.rows(range(dataset.n)))
    chosen = set(chosen)
    labels = dataset.labels if dataset.labels is not None else np.zeros(dataset.n, dtype=int)
    return [[f"{coords[i, 0]:.6f}", f"{coords[i, 1]:.6f}",
             int(labels[i]), int(i in chosen)] for i in range(dataset.n)]


def cmd_oracle(args):
    Z, _ = _read_data(args)
    n, m = Z.shape
    if args.k > m:
        raise InvalidConfigError(f"k {args.k} exceeds dims {m}; "
                                 "such selections are singular")
    if args.k > n:
        raise InvalidConfigError(f"k must be in 1..{min(n, m)}, got {args.k}")
    result = dpp.brute_force_map(Z, args.k)
    print(json.dumps({"indices": result.indices,
                      "logdet": result.stepwise_logdets[-1]}))
    return 0


def cmd_ttest(args):
    lines = _load_results(args.results, args.metric)
    xs, ys = ([ln[args.metric] for ln in lines
               if ln["strategy"] == s and ln.get(args.metric) is not None]
              for s in (args.a, args.b))
    if len(xs) < 2 or len(ys) < 2:
        raise InvalidConfigError("need at least two observations per strategy")
    t, p = metrics.welch_ttest(xs, ys)
    print(json.dumps({"a": args.a, "b": args.b, "metric": args.metric,
                      "t": t, "p": p, "n_a": len(xs), "n_b": len(ys)}))
    return 0


_COMMANDS = {
    "gen": (cmd_gen, "generate a synthetic dataset + partition"),
    "partition": (cmd_partition, "partition an existing dataset"),
    "run": (cmd_run, "execute a campaign, one JSON line per trial"),
    "report": (cmd_report, "aggregate results into CSV tables"),
    "oracle": (cmd_oracle, "exhaustive MAP on a small dataset"),
    "ttest": (cmd_ttest, "Welch t-test between two strategies"),
}


def build_parser():
    """Every command's parser, each flag as its ``SETTINGS`` row declares it."""
    parser = _Parser(prog="ddpp", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (func, summary) in _COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        p.set_defaults(func=func)
        for flag, parse, defaults, help_text in SETTINGS:
            if command in defaults:
                how = (dict(action="store_true") if parse is bool else
                       dict(choices=parse) if isinstance(parse, tuple)
                       else dict(type=parse))
                default = defaults[command]
                p.add_argument(flag, required=default is REQUIRED, help=help_text,
                               default=None if default is REQUIRED else default, **how)
    return parser


@functools.cache
def _parser():
    """The one parser of this process; parsing leaves it unchanged."""
    return build_parser()


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "run" and args.config:
            at = argv.index("run") + 1  # the file's flags first: the command line wins
            args = parser.parse_args(
                argv[:at] + _run_flags(_config_lines(args.config)) + argv[at:])
        if args.command == "report" and args.pca_seed is not None:
            args.manifest = _manifest(args.results)  # the run's settings
        args.argv = argv  # the manifest's "command"
        return args.func(args)
    except DdppError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, (InvalidConfigError, TooLargeError)):  # oracle's --k
            return EXIT_CONFIG
        return EXIT_NUMERICAL if isinstance(exc, _NUMERICAL_ERRORS) else 1


if __name__ == "__main__":
    sys.exit(main())
