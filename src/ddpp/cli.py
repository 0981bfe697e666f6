"""Command-line front end: dataset generation, campaigns, and reports.

Subcommands: gen, partition, run, report, oracle, ttest.  Exit codes:
0 success, 2 configuration error, 3 numerical or budget failure, 1 any
other package error (a frame that fails to decode or breaks the protocol).
Campaign points may run in a thread pool capped by DDPP_THREADS.
"""

import argparse
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


def _check_out(path):
    """Refuse, making nothing, an ``--out`` directory ``_make_out`` could not
    make: its nearest existing ancestor must be a writable directory."""
    head = os.path.abspath(path)
    while not os.path.lexists(head):
        head = os.path.dirname(head)
    if not (os.path.isdir(head) and os.access(head, os.W_OK | os.X_OK)):
        raise InvalidConfigError(f"cannot make --out {path}: " + (
            "Permission denied" if os.path.isdir(head) else "Not a directory"))


def _config_flags(path, settings):
    """A config file's ``key=value`` lines as ``--key=value`` flags of ``run``.

    ``settings`` maps each ``run`` setting to its parsed value; a boolean
    one becomes the bare flag when the file's value is truthy.  Blank lines
    and # comments are ignored.
    """
    flags = []
    with _open(path, InvalidConfigError) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise InvalidConfigError(f"{path}:{lineno}: expected key=value")
            key, _, value = (part.strip() for part in line.partition("="))
            dest = key.replace("-", "_")
            if dest not in settings:
                raise InvalidConfigError(f"unknown config key {key!r}")
            flag = "--" + dest.replace("_", "-")
            if not isinstance(settings[dest], bool):
                flags.append(f"{flag}={value}")
            elif value.lower() in ("1", "true", "yes", "on"):
                flags.append(flag)
    return flags


def _int_list(text):
    return [int(v) for v in str(text).split(",") if v != ""]


def _float_list(text):
    return [float(v) for v in str(text).split(",") if v != ""]


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
        return max(1, int(raw))
    except ValueError:
        raise InvalidConfigError(f"DDPP_THREADS must be an integer, got {raw!r}")


def _check_seed(seed, flag="--seed"):
    """A seed flag's value, which numpy needs non-negative."""
    if seed < 0:
        raise InvalidConfigError(f"{flag} must be non-negative, got {seed}")


def cmd_gen(args):
    n = args.sources * args.ni if args.n is None else args.n
    if min(args.sources, args.m, n) < 1:
        raise InvalidConfigError(f"--sources ({args.sources}), --m ({args.m}) "
                                 f"and the sample count ({n}) must be positive")
    _check_seed(args.seed)
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
    _check_seed(args.seed)
    Z, labels = _read_data(args)
    part = data.partition(Z.shape[0], args.sources, policy=args.partition_policy,
                          seed=args.seed, cluster_labels=labels, skew=args.skew)
    with _make_out(args.out, file=True) as fh:
        fh.write(part.to_json())
    print(f"wrote {args.out}")
    return 0


def _unit_configs(args, seed, n_sources, dims):
    """Validated configs of one campaign unit, one per (R, strategy) pair."""
    return [engine.ExperimentConfig(
        n_sources=n_sources, dims=dims, total_select=args.kT,
        intervals=args.tT, sparsity=R, epsilon=args.epsilon,
        block_fraction=args.block_fraction, strategy=strategy,
        compression=args.compression, seed=seed,
        momentum=not args.no_momentum).validate()
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
    seeds = args.seed_list if args.seed_list is not None else list(range(args.seeds))
    if not (seeds and args.strategies and args.N and args.R):
        raise InvalidConfigError("need at least one seed, strategy, N and R")
    _check_seed(min(seeds), "seeds")
    _check_out(args.out)
    if args.partition_file and not args.data:
        raise InvalidConfigError("--partition-file needs --data")
    _check_seed(args.partition_seed, "--partition-seed")
    loaded = _read_data(args) if args.data else None
    dims = loaded[0].shape[1] if loaded else args.m
    if not loaded and args.ni < 1:
        raise InvalidConfigError(f"--ni must be positive, got {args.ni}")
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
            missing = [k for k in _RESULT_TYPES if k != "m" and k not in line]
            if missing:
                raise InvalidConfigError(f"{path}:{lineno}: no {', '.join(missing)}")
            wrong = [k for k, t in types.items() if type(line.get(k)) not in t]
            if wrong:
                raise InvalidConfigError(f"{path}:{lineno}: wrong type: " + ", ".join(
                    f"{k} = {line[k]!r}" for k in wrong))
            lines.append(line)
    if not lines:
        raise InvalidConfigError(f"no result lines in {path}")
    return lines


def cmd_report(args):
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
            if vals:
                row = [f"{np.mean(vals):.6f}", f"{np.std(vals, ddof=1) if len(vals) > 1 else 0.0:.6f}", len(vals)]
            else:
                row = ["NA", "NA", 0]
            writer.writerow(list(key) + row)
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
    manifest_path = os.path.join(os.path.dirname(os.path.abspath(args.results)),
                                 "manifest.json")
    with _open(manifest_path, InvalidConfigError) as fh:
        try:
            manifest = json.load(fh)
        except ValueError:
            manifest = None
    resolved = manifest.get("resolved") if isinstance(manifest, dict) else None
    if not isinstance(resolved, dict):
        raise InvalidConfigError(
            f"{manifest_path}: not a JSON object with a 'resolved' object")
    match = [ln for ln in lines
             if ln["seed"] == args.pca_seed and ln["strategy"] == args.pca_strategy]
    if not match:
        raise InvalidConfigError(
            f"no result for seed {args.pca_seed} strategy {args.pca_strategy!r}")
    line = match[0]
    chosen = line.get("selected_indices")
    if type(chosen) is not list or any(type(i) is not int for i in chosen):
        raise InvalidConfigError(f"{args.results}: no integer selected_indices "
                                 f"for seed {args.pca_seed} {args.pca_strategy}")
    ns = argparse.Namespace(**resolved)
    try:
        dataset = _dataset(ns, args.pca_seed, line["N"])
    except AttributeError as exc:  # a setting the run resolved is missing
        if exc.obj is not ns:
            raise
        raise InvalidConfigError(f"{manifest_path}: no {exc.name!r} setting") from None
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
    if not 1 <= args.k <= n:
        raise InvalidConfigError(f"k must be in 1..{min(n, m)}, got {args.k}")
    result = dpp.brute_force_map(Z, args.k)
    print(json.dumps({"indices": result.indices,
                      "logdet": result.stepwise_logdets[-1]}))
    return 0


def cmd_ttest(args):
    lines = _load_results(args.results, args.metric)
    xs = [ln[args.metric] for ln in lines
          if ln["strategy"] == args.a and ln.get(args.metric) is not None]
    ys = [ln[args.metric] for ln in lines
          if ln["strategy"] == args.b and ln.get(args.metric) is not None]
    if len(xs) < 2 or len(ys) < 2:
        raise InvalidConfigError("need at least two observations per strategy")
    t, p = metrics.welch_ttest(xs, ys)
    print(json.dumps({"a": args.a, "b": args.b, "metric": args.metric,
                      "t": t, "p": p, "n_a": len(xs), "n_b": len(ys)}))
    return 0


def _add_synth_args(p):
    p.add_argument("--ni", type=int, default=500, help="samples per source")
    p.add_argument("--m", type=int, default=64, help="feature dimensions")
    p.add_argument("--clusters", type=int, default=20)
    p.add_argument("--spread", type=float, default=0.06)
    p.add_argument("--scale", type=float, default=10.0)
    p.add_argument("--radius-jitter", type=float, default=0.2)
    p.add_argument("--norm-tail", type=float, default=0.4)
    p.add_argument("--mean-sparsity", type=float, default=0.3)
    p.add_argument("--partition-policy", default="cluster_skewed",
                   choices=["uniform_random", "cluster_skewed"])
    p.add_argument("--skew", type=float, default=0.1)


def build_parser():
    parser = argparse.ArgumentParser(prog="ddpp",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic dataset + partition")
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, default=None,
                   help="total samples (default sources*ni)")
    p.add_argument("--sources", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    _add_synth_args(p)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("partition", help="partition an existing dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--sources", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--label-column", action="store_true")
    p.add_argument("--partition-policy", default="uniform_random",
                   choices=["uniform_random", "cluster_skewed"])
    p.add_argument("--skew", type=float, default=0.5)
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("run", help="execute a campaign, one JSON line per trial")
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None, help="key=value file; flags win")
    p.add_argument("--data", default=None, help="dataset file (else synthetic)")
    p.add_argument("--partition-file", default=None)
    p.add_argument("--partition-seed", type=int, default=0)
    p.add_argument("--label-column", action="store_true")
    p.add_argument("--strategies", type=lambda s: s.split(","),
                   default=["ddpp", "greedi"])
    p.add_argument("--seeds", type=int, default=20, help="seed count 0..n-1")
    p.add_argument("--seed-list", type=_int_list, default=None,
                   help="explicit seeds, comma separated")
    p.add_argument("--N", type=_int_list, default=[10], help="source count sweep")
    p.add_argument("--R", type=_float_list, default=None,
                   help="sparsity sweep (default 0.75*kT/tT)")
    p.add_argument("--kT", type=int, default=120)
    p.add_argument("--tT", type=int, default=2)
    p.add_argument("--epsilon", type=float, default=1e-6)
    p.add_argument("--block-fraction", type=float, default=0.5)
    p.add_argument("--compression", default="proposed",
                   choices=list(engine.COMPRESSIONS))
    p.add_argument("--no-momentum", action="store_true")
    p.add_argument("--transport", default="loopback",
                   choices=["loopback", "tcp"])
    _add_synth_args(p)
    p.set_defaults(func=cmd_run, partition_policy=None)

    p = sub.add_parser("report", help="aggregate results into CSV tables")
    p.add_argument("--results", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--pairs", default="ddpp:greedi",
                   help="t-test pairs, e.g. ddpp:greedi,ddpp:random")
    p.add_argument("--pca-seed", type=int, default=None)
    p.add_argument("--pca-strategy", default="ddpp")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("oracle", help="exhaustive MAP on a small dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--label-column", action="store_true")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("ttest", help="Welch t-test between two strategies")
    p.add_argument("--results", required=True)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--metric", default="rde")
    p.set_defaults(func=cmd_ttest)
    return parser


@functools.cache
def _parser():
    """The one parser of this process; parsing leaves it unchanged."""
    return build_parser()


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            if args.config:  # the file's flags go first: the command line wins
                settings = {k: v for k, v in vars(args).items()
                            if k not in ("command", "func")}
                at = argv.index("run") + 1
                args = parser.parse_args(
                    argv[:at] + _config_flags(args.config, settings) + argv[at:])
            if args.tT < 1:  # before it divides the default R
                raise InvalidConfigError(f"--tT must be at least 1, got {args.tT}")
            if args.R is None:
                args.R = [0.75 * args.kT / args.tT]
        args.argv = argv  # the manifest's "command"
        return args.func(args)
    except DdppError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, (InvalidConfigError, TooLargeError)):  # oracle's --k
            return EXIT_CONFIG
        return EXIT_NUMERICAL if isinstance(exc, _NUMERICAL_ERRORS) else 1


if __name__ == "__main__":
    sys.exit(main())
