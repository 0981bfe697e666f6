"""Campaign benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the package is imported from ``src/`` of
that checkout and nowhere else.  The benchmark is a closed loop: one
researcher process runs one campaign unit at a time, unit ``i`` on seed
``seed + i``, for at least ``--seconds`` and at least the workload's
``quality_units`` units.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs every seed
twice, once plain and once under the span tracer, and prints the per-layer
metrics.  The last line of standard output is the JSON result; the line
before it holds the details (environment, seeds, selection digests, failure
classes, tail latency).  Both are also written under ``.perfbench_out/``,
together with the spans of a traced run.
"""

import os
import sys

# Pin every thread pool before numpy is imported: with default BLAS
# threading on two cores, unit times spread several times wider.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "DDPP_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import select  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_SAMPLES = 3
SETUP_TIMEOUT_S = 120
# Stop starting units after this long whatever the minimum unit count says,
# so a run always ends well inside its time limit.
HARD_STOP_S = 120
TAIL_LADDER = (99, 95, 90, 75, 50)


SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(ROOT)]
try:
    import ddpp  # noqa: E402
    from perfbench import instrument, workloads  # noqa: E402
    from perfbench.reference import Reference  # noqa: E402
except ImportError as exc:
    sys.exit(f"perfbench: cannot import ddpp from {SRC}: {exc}")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


# -- environment -----------------------------------------------------------

def _openblas_threads():
    """Effective OpenBLAS thread count of this process, or None."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _source_identity():
    """Git commit if the checkout has one, and a digest of src/ddpp."""
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else None
        else:
            commit = ref
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "ddpp").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return commit, h.hexdigest()[:16]


def environment():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit, digest = _source_identity()
    affinity = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return {
        "nproc": os.cpu_count(), "affinity_cpus": affinity,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _openblas_threads(),
        "pinned_env": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS",
                                                   "OMP_NUM_THREADS",
                                                   "MKL_NUM_THREADS",
                                                   "DDPP_THREADS")},
        "git_commit": commit, "src_digest": digest,
        "machine": platform.machine(),
    }


# -- set-up ----------------------------------------------------------------

def measure_setup(args, ref):
    """Seconds from process start to ready of fresh processes.

    Each sample starts the interpreter, imports the package and runs one
    warm-up unit on the warm-up seed, then reports ready.  Returns the
    median scaled to reference speed, and the measured samples.
    """
    samples, scaled = [], []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds", "0",
           "--setup-probe"]
    for _ in range(SETUP_SAMPLES):
        before = ref.seconds()
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            readable, _, _ = select.select([proc.stdout], [], [], SETUP_TIMEOUT_S)
            line = proc.stdout.readline() if readable else ""
            ready = time.perf_counter()
            if line.strip() == "ready":
                proc.wait(timeout=SETUP_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
        samples.append(ready - start)
        scaled.append(samples[-1] * ref.scale(before, ref.seconds()))
    return statistics.median(scaled), samples


def warm_up(spec, seed, work_dir):
    with instrument.Instrument() as ins, ins.unit(-1):
        workloads.run_unit(spec, workloads.warmup_seed(seed), work_dir)


def transport_agreement(spec, seed, work_dir):
    """Selections of the first seed over tcp equal those of a loopback run."""
    if not spec.via_cli or spec.transport == "loopback":
        return True
    tcp, _ = workloads.cli_unit(spec, seed, str(work_dir), spec.transport)
    loop, _ = workloads.cli_unit(spec, seed, str(work_dir), "loopback")
    picks = [[(r["strategy"], r["selected_indices"]) for r in rows] for rows in (tcp, loop)]
    return picks[0] == picks[1]


# -- measured loop ---------------------------------------------------------

class UnitLog:
    """Outcome of every measured unit."""

    def __init__(self):
        self.walls = []          # seconds of units that passed
        self.ddpp_s = []         # proposed run_ddpp seconds of units that passed
        self.scales = []         # reference-speed factor of units that passed
        self.quality = []        # (seed, rows, wire bytes) of the first units
        self.attempted = 0
        self.failed = 0
        self.errors = {}         # error class -> count

    def record_failure(self, seed, name, detail):
        self.failed += 1
        self.errors[name] = self.errors.get(name, 0) + 1
        print(f"perfbench: unit seed {seed} failed: {name}: {detail}", file=sys.stderr)


def run_one(spec, seed, ins, work_dir, log, uid):
    """Run and check one unit under ``ins``; returns its wall seconds or None."""
    log.attempted += 1
    start = time.perf_counter()
    try:
        with ins.unit(uid):
            rows = workloads.run_unit(spec, seed, str(work_dir))
        wall = time.perf_counter() - start
        failures = workloads.check_unit(spec, rows, ins.ddpp_runs)
        if failures:
            raise workloads.CheckFailed(failures)
    except workloads.CheckFailed as exc:
        log.record_failure(seed, "CheckFailed", exc)
        return None
    except Exception as exc:  # a unit that raises is counted, not fatal
        log.record_failure(seed, type(exc).__name__, traceback.format_exc(limit=3))
        return None
    log.walls.append(wall)
    log.ddpp_s.append(ins.ddpp_runs[0][0])
    if len(log.quality) < spec.quality_units:
        log.quality.append((seed, rows, ins.ddpp_runs[0][1]))
    return wall


def _keep_going(i, started, min_units, seconds):
    elapsed = time.perf_counter() - started
    if i >= workloads.MAX_UNITS or elapsed >= HARD_STOP_S:
        return False
    return i < min_units or elapsed < seconds


def measure(spec, args, work_dir, ref):
    """Units one after another, the reference kernel timed between them."""
    log = UnitLog()
    with instrument.Instrument() as ins:
        started = time.perf_counter()
        before = ref.seconds()
        i = 0
        while _keep_going(i, started, spec.quality_units, args.seconds):
            passed = run_one(spec, args.seed + i, ins, work_dir, log, uid=i)
            after = ref.seconds()
            if passed is not None:
                log.scales.append(ref.scale(before, after))
            before = after
            i += 1
        elapsed = time.perf_counter() - started
    return log, elapsed


def measure_traced(spec, args, work_dir):
    """Each seed plain and traced, alternating which goes first."""
    plain, traced = UnitLog(), UnitLog()
    records, summaries = [], []
    started = time.perf_counter()
    i = 0
    while _keep_going(i, started, 1, args.seconds):
        order = (False, True) if i % 2 == 0 else (True, False)
        for spans in order:
            with instrument.Instrument(spans=spans) as ins:
                wall = run_one(spec, args.seed + i, ins, work_dir,
                               traced if spans else plain, uid=i)
            if spans:
                records.extend(ins.records)
                if wall is not None:
                    summaries.append(instrument.unit_summary(ins))
        i += 1
    return plain, traced, records, summaries


# -- reporting -------------------------------------------------------------

def failure_summary(logs):
    """(attempted, failed, failed ratio, failures per error class)."""
    attempted = sum(lg.attempted for lg in logs)
    failed = sum(lg.failed for lg in logs)
    errors = {}
    for lg in logs:
        for name, count in lg.errors.items():
            errors[name] = errors.get(name, 0) + count
    return attempted, failed, failed / attempted if attempted else 1.0, errors


def tail(values):
    """Highest ladder percentile with at least ten samples above it."""
    ordered = sorted(values)
    n = len(ordered)
    for p in TAIL_LADDER:
        idx = -(-p * n // 100)  # ceil: samples at or below the percentile
        if n - idx >= 10:
            return {"value": ordered[idx - 1], "percentile": p, "n": n}
    return None


def _proposed(rows, strategy):
    return next(r for r in rows if r["strategy"] == strategy and
                r["compression"] == "proposed")


def timings(log, scaled=True):
    """(units per second, unit p50, ddpp run p50) over the passed units."""
    factors = log.scales if scaled else [1.0] * len(log.walls)
    walls = [w * f for w, f in zip(log.walls, factors)]
    ddpp = [d * f for d, f in zip(log.ddpp_s, factors)]
    return len(walls) / sum(walls), statistics.median(walls), statistics.median(ddpp)


def end_to_end(log, setup_s):
    """End-to-end metrics.  Timings cover every passed unit and are scaled to
    reference speed; the repeatable metrics (RDE, feedback elements, wire
    bytes) cover the first ``quality_units`` units only."""
    q = log.quality
    units_per_s, unit_p50, ddpp_p50 = timings(log)
    return {
        "units_per_s": (units_per_s, "1/s"),
        "unit_s.p50": (unit_p50, "s"),
        "ddpp_run_s.p50": (ddpp_p50, "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "rde.ddpp.mean": (statistics.fmean(_proposed(r, "ddpp")["rde"] for _, r, _ in q),
                          "ratio"),
        "rde.greedi.mean": (statistics.fmean(_proposed(r, "greedi")["rde"] for _, r, _ in q),
                            "ratio"),
        "feedback_elements.per_unit": (
            statistics.fmean(_proposed(r, "ddpp")["downlink_elements"] for _, r, _ in q),
            "count"),
        "wire_bytes.per_unit": (statistics.fmean(w for _, _, w in q), "bytes"),
    }


def selection_digests(quality):
    """sha256 over every label's selected indices, unit by unit."""
    hashes = {}
    for seed, rows, _ in quality:
        for row in rows:
            h = hashes.setdefault(workloads.label_of(row), hashlib.sha256())
            h.update(f"{seed}:{row['selected_indices']}\n".encode())
    return {label: h.hexdigest()[:16] for label, h in hashes.items()}


def write_spans(path, records):
    with open(path, "w") as fh:
        for sid, name, start, end, parent, unit, thread, wait in records:
            fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                 "parent": parent, "unit": unit, "thread": thread,
                                 "wait": wait}) + "\n")


def main(argv=None):
    args = parse_args(argv)
    if not Path(ddpp.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"perfbench: ddpp imported from {ddpp.__file__}, not {SRC}")
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"known: {', '.join(workloads.WORKLOADS)}")
    spec = workloads.WORKLOADS[args.workload]
    work_dir = OUT_DIR / f"work-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_probe:
            warm_up(spec, args.seed, str(work_dir))
            print("ready", flush=True)
            return 0
        ref = Reference(spec.dims, spec.per_source_size)
        # Set-up time is an end-to-end metric; the traced run skips it.
        setup_s, setup_samples = measure_setup(args, ref) if not args.trace else (None, [])
        warm_up(spec, args.seed, str(work_dir))
        agree = transport_agreement(spec, args.seed, work_dir)
        detail = {"workload": spec.name, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "environment": environment(),
                  "warmup_seed": workloads.warmup_seed(args.seed),
                  "setup_samples_s": setup_samples,
                  "transport_matches_loopback": agree}
        if args.trace:
            plain, traced, records, summaries = measure_traced(spec, args, work_dir)
            logs = (plain, traced)
            metrics = instrument.layer_metrics(summaries, plain.walls, traced.walls)
            write_spans(OUT_DIR / f"spans-{spec.name}-seed{args.seed}.jsonl", records)
            detail["traced_units"] = len(summaries)
            detail["identity_error_s"] = max(
                (abs(s["identity_error_s"]) for s in summaries), default=0.0)
            ok_identity = detail["identity_error_s"] < 1e-6
        else:
            log, elapsed = measure(spec, args, work_dir, ref)
            logs = (log,)
            metrics = end_to_end(log, setup_s) if log.quality else {}
            detail["measured_s"] = elapsed
            if log.walls:
                detail["unscaled"] = dict(zip(
                    ("units_per_s", "unit_s.p50", "ddpp_run_s.p50"), timings(log, False)))
                detail["unscaled"]["setup_s"] = statistics.median(setup_samples)
            detail["reference_s"] = {"nominal": ref.nominal, "median": ref.median()}
            detail["unit_seeds"] = [args.seed, args.seed + log.attempted - 1]
            detail["quality_seeds"] = [s for s, _, _ in log.quality]
            detail["selection_digest"] = selection_digests(log.quality)
            detail["unit_s.tail"] = tail(log.walls)
            detail["unit_walls_s"] = log.walls
            detail["unit_scales"] = log.scales
            ok_identity = True
        attempted, failed, detail["failed_ratio"], detail["errors"] = failure_summary(logs)
        detail["units_passed"] = sum(len(lg.walls) for lg in logs)
        correct = bool(failed == 0 and agree and ok_identity and metrics)
        result = {"correct": correct, "attempted": attempted, "failed": failed,
                  "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
        stem = f"{spec.name}-seed{args.seed}-trace{args.trace}"
        (OUT_DIR / f"{stem}.json").write_text(json.dumps(
            {"detail": detail, "result": result}, indent=1, default=str))
        print(json.dumps({"detail": detail}, default=str))
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
