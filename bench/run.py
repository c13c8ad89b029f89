"""Run one benchmark workload in this process.

    python3 bench/run.py --workload kway-ladder --seed 1 --seconds 20 --trace 0

Inputs come from ``--seed``.  Set-up (input generation, service start and
one untimed warm-up op) is repeated three times and its median reported.
The timed window then replays the workload's op list in whole rounds for
about ``--seconds``, audits every output, checks that every round repeated
the first one exactly, and prints one JSON object as the last line of
standard output::

    {"correct": true, "attempted": 96, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs one untraced round, then traced rounds, and reports the
per-layer metrics instead.  The line before it carries provenance and
detail.  The module is import-safe: spawned worker processes re-import it.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Per-op fingerprints of earlier runs in this checkout, one file per
#: (workload, seed, library source digest), so a later run of the same code
#: that disagrees fails.
HISTORY_DIR = os.path.join(HERE, ".runs")
SETUP_REPS = 3
#: Every timed window holds at least this many whole rounds.
MIN_ROUNDS = 2
#: The tail is the highest percentile with this many samples beyond it in a
#: window of ``MIN_ROUNDS`` rounds.
TAIL_BEYOND = 10


@dataclass
class Round:
    lat: list = field(default_factory=list)
    outs: list = field(default_factory=list)
    errors: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)


def _run_round(wl, trace=None) -> Round:
    rd = Round()
    levels0 = trace.counts["coarsen.levels"] if trace else 0
    wl.begin_round()
    try:
        for i in range(len(wl.ops)):
            t0 = time.perf_counter()
            try:
                if trace is None:
                    out = wl.run_op(i)
                else:
                    with trace.op():
                        out = wl.run_op(i)
            except Exception:  # noqa: BLE001 - a failed op is counted
                out = None
                rd.errors[i] = traceback.format_exc(limit=4)
            rd.lat.append(time.perf_counter() - t0)
            rd.outs.append(out)
    finally:
        rd.counts = wl.end_round()
    if trace is not None:
        rd.counts["coarsen.levels"] = trace.counts["coarsen.levels"] - levels0
    return rd


def _run_window(wl, seconds, trace=None):
    """Whole rounds, at least ``MIN_ROUNDS``, until about ``seconds`` have
    passed; returns the rounds and the window's wall time."""
    rounds = []
    t0 = time.perf_counter()
    while True:
        rounds.append(_run_round(wl, trace))
        elapsed = time.perf_counter() - t0
        # Stop at the round boundary nearest to the requested length.
        if (len(rounds) >= MIN_ROUNDS
                and elapsed * (1 + 0.5 / len(rounds)) >= seconds):
            return rounds, elapsed


class _WorkerPeak:
    """Tracks the largest ``VmHWM`` of this process's children while active.

    ``getrusage(RUSAGE_CHILDREN)`` cannot stand in: a spawned child's
    ``ru_maxrss`` starts from the parent's size at fork.
    """

    def __init__(self):
        self.mb = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._poll, daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        return False

    def _poll(self):
        while not self._stop.wait(0.02):
            for pid in _child_pids():
                try:
                    with open(f"/proc/{pid}/status") as f:
                        for line in f:
                            if line.startswith("VmHWM:"):
                                self.mb = max(self.mb,
                                              int(line.split()[1]) / 1024.0)
                except OSError:
                    continue


def _setup(cls, seed):
    """Set up ``SETUP_REPS`` times (inputs, service start, one warm-up op);
    keep the last.  The warm-up ops also give the largest worker's peak
    memory without a sampler running in the timed window."""
    times = []
    wl = None
    with _WorkerPeak() as workers:
        for _ in range(SETUP_REPS):
            if wl is not None:
                wl.close()
                wl = None
            t0 = time.perf_counter()
            wl = cls(seed)
            wl.begin_round()
            try:
                wl.run_op(0)
            finally:
                wl.end_round()
            times.append(time.perf_counter() - t0)
    return wl, times, workers.mb


def _repeat_mismatches(rounds) -> list[str]:
    """Every round must reproduce the first: per-op keys, and each round
    count the first round that recorded it."""
    ref, first, bad = rounds[0], {}, []
    for r, rd in enumerate(rounds):
        for i, (a, b) in enumerate(zip(ref.outs, rd.outs)):
            if a is not None and b is not None and a.key != b.key:
                bad.append(f"round {r} op {i}: {b.key} != {a.key}")
        for k, v in rd.counts.items():
            if first.setdefault(k, v) != v:
                bad.append(f"round {r} {k}: {v} != {first[k]}")
    return bad


def _history_mismatches(workload, seed, src_digest, rounds) -> list[str]:
    """Compare this run's fingerprints with earlier runs of the same
    workload, seed and library code in this checkout, then record the
    union."""
    path = os.path.join(HISTORY_DIR, f"{workload}-{seed}-{src_digest}.json")
    keys = [o.key if o is not None else None for o in rounds[0].outs]
    counts = {}
    for rd in rounds:
        counts.update(rd.counts)
    try:
        with open(path) as f:
            old = json.load(f)
    except (FileNotFoundError, json.JSONDecodeError):
        old = {"keys": [], "counts": {}}
    bad = [f"op {i}: {b} != earlier {a}"
           for i, (a, b) in enumerate(zip(old["keys"], keys))
           if a is not None and b is not None and a != b]
    bad += [f"{k}: {counts[k]} != earlier {old['counts'][k]}"
            for k in counts.keys() & old["counts"].keys()
            if counts[k] != old["counts"][k]]
    if not bad:
        merged = {"keys": keys, "counts": {**old["counts"], **counts}}
        os.makedirs(HISTORY_DIR, exist_ok=True)
        tmp = f"{path}.{os.getpid()}.tmp"
        with open(tmp, "w") as f:
            json.dump(merged, f)
        os.replace(tmp, path)
    return bad


def _audit(rounds, audit, ubvec) -> list:
    failures = []
    for r, rd in enumerate(rounds):
        for i, out in enumerate(rd.outs):
            if out is None:
                failures.append({"round": r, "op": i, "checks": ["error"]})
                continue
            checks = audit.audit_graph_result(out.graph, out.part, out.nparts,
                                              out.edgecut, ubvec)
            if checks:
                failures.append({"round": r, "op": i, "checks": checks})
    return failures


def _child_pids() -> set[int]:
    me, kids = os.getpid(), set()
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        # "pid (comm) state ppid ...": comm may hold spaces, so split after ')'.
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            kids.add(int(name))
    return kids


def _leaks(active_segments) -> list[str]:
    from multiprocessing import resource_tracker

    problems = []
    segs = active_segments()
    if segs:
        problems.append(f"shared-memory segments left: {segs}")
    tracker = resource_tracker._resource_tracker._pid
    kids = _child_pids() - {tracker}
    if kids:
        problems.append(f"child processes left: {sorted(kids)}")
    return problems


def _stop_resource_tracker() -> None:
    """The shared-memory resource tracker is a child of this process; stop
    it and wait, so no process outlives the run."""
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if tracker._pid is not None:
        tracker._stop()


def _tail(lat, nops):
    """The percentile with ``TAIL_BEYOND`` samples beyond it in a window of
    ``MIN_ROUNDS`` rounds of ``nops`` ops, taken over every raw sample.  It
    depends on the op list only, so a longer window on a faster host reads
    the same percentile; a longer window only puts more samples beyond it."""
    n_min = MIN_ROUNDS * nops
    frac = max(0, n_min - 1 - TAIL_BEYOND) / (n_min - 1)
    s = sorted(lat)
    idx = int(frac * (len(s) - 1))
    return s[idx], {"samples": len(s), "percentile": round(100.0 * frac, 2),
                    "beyond": len(s) - 1 - idx}


def _git_state():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None, None
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=20,
                             capture_output=True, text=True).stdout.strip()
        dirty = subprocess.run(["git", "status", "--porcelain",
                                "--untracked-files=no"], cwd=ROOT, timeout=20,
                               capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None, None
    return sha or None, bool(dirty)


def _src_digest() -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(SRC, "repro")):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def _provenance(args, np, src_digest) -> dict:
    sha, dirty = _git_state()
    return {"git_sha": sha, "git_dirty": dirty, "src_digest": src_digest,
            "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "workload": args.workload, "workload_seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


def _peak_rss_mb(worker_mb):
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return max(own, worker_mb), {"self_mb": own, "largest_worker_mb": worker_mb}


def _ok_lat(rounds):
    return [x for rd in rounds for x, o in zip(rd.lat, rd.outs) if o is not None]


def _op_latencies(rounds):
    """One sample per op of the list, its median latency over the rounds,
    for ``latency_p50_ms``: repeats then damp machine noise in the median."""
    per_op = [[rd.lat[i] for rd in rounds if rd.outs[i] is not None]
              for i in range(len(rounds[0].lat))]
    return [statistics.median(x) for x in per_op if x]


def _timed(wl, args):
    rounds, window = _run_window(wl, args.seconds)
    lat = _op_latencies(rounds)
    tail, tail_info = _tail(_ok_lat(rounds), len(wl.ops))
    cuts = [o.edgecut for o in rounds[0].outs if o is not None]
    # Median over rounds: a burst of machine noise costs one round, not the
    # whole figure.
    metrics = {
        "ops_per_s": statistics.median(
            sum(o is not None for o in rd.outs) / sum(rd.lat) for rd in rounds),
        "latency_p50_ms": 1e3 * statistics.median(lat),
        "latency_tail_ms": 1e3 * tail,
        "cut_per_op": sum(cuts) / len(cuts),
    }
    detail = {"window_s": window, "tail": tail_info}
    return rounds, metrics, detail


def _traced(wl, args, layers):
    base = _run_round(wl)
    base_s = sum(base.lat)
    trace = layers.install(layers.LayerTrace())
    try:
        traced, _ = _run_window(wl, max(args.seconds - base_s, 0.0), trace)
    finally:
        trace.uninstall()
    traced_lat = _ok_lat(traced)
    extra = {"untraced_p50_s": statistics.median(_ok_lat([base])),
             "traced_p50_s": statistics.median(traced_lat)}
    for rd in traced:
        for counts in [rd.counts] + [o.extra for o in rd.outs if o is not None]:
            for k, v in counts.items():
                extra[k] = extra.get(k, 0) + v
    if "cold_computes" in base.counts:
        extra["serve_latency_s"] = sum(traced_lat)
    if hasattr(wl, "serial_seconds"):
        serial = [wl.serial_seconds(i) for i in range(len(wl.ops))]
        extra["serial_ratio"] = (statistics.median(serial)
                                 / statistics.median(_ok_lat([base])))
    metrics = layers.layer_metrics(trace, extra)
    op_s = trace.op_s
    shares = {f"{layer}.self_s": trace.self_s[layer] / op_s
              for layer in layers.LAYERS}
    shares["coarsen.self_s+refine.kway_s"] = (
        trace.self_s["coarsen"] + trace.site_incl["kway_refine"]) / op_s
    shares["adaptive.balance_s"] = trace.site_incl["adaptive_balance"] / op_s
    detail = {"traced_ops": trace.ops, "self_time_gap": layers.self_time_gap(trace),
              "overlapping_frames": trace.overlaps, "shares": shares}
    problems = []
    if detail["self_time_gap"] > 1e-6 or trace.overlaps:
        problems.append("layer self times do not add up to the op time")
    return [base] + traced, metrics, detail, problems


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in _spec()["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: the repro sources are missing ({SRC}/repro)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import numpy as np
    import scipy.spatial  # noqa: F401 - mesh generation imports it lazily

    import audit
    import layers
    import workloads
    from repro.parallel.shm import active_segments

    import_s = time.perf_counter() - _T0
    src_digest = _src_digest()
    wl, setup_times, worker_mb = _setup(workloads.WORKLOADS[args.workload], args.seed)
    setup_s = import_s + statistics.median(setup_times)
    problems = []
    try:
        if args.trace:
            rounds, metrics, detail, problems = _traced(wl, args, layers)
        else:
            rounds, metrics, detail = _timed(wl, args)
    finally:
        wl.close()

    failures = _audit(rounds, audit, wl.ubvec)
    attempted = sum(len(rd.outs) for rd in rounds)
    repeat = _repeat_mismatches(rounds)
    history = _history_mismatches(args.workload, args.seed, src_digest, rounds)
    leaks = _leaks(active_segments)
    peak, rss = _peak_rss_mb(worker_mb)
    _stop_resource_tracker()
    if not args.trace:
        metrics["ok_share"] = (attempted - len(failures)) / attempted
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = peak
    problems += repeat + history + leaks
    detail.update({
        "provenance": _provenance(args, np, src_digest),
        "rounds": len(rounds), "ops_per_round": len(wl.ops),
        "round_counts": rounds[0].counts if not args.trace else rounds[-1].counts,
        "import_s": import_s, "setup_reps_s": setup_times, "rss": rss,
        "audit_failures": failures, "repeat_mismatches": repeat,
        "history_mismatches": history, "leaks": leaks,
        "errors": {f"{r}:{i}": tb for r, rd in enumerate(rounds)
                   for i, tb in rd.errors.items()},
    })
    units = {m["name"]: m["unit"]
             for m in _spec()["per_layer" if args.trace else "end_to_end"]}
    if set(metrics) != set(units):
        problems.append("metric names differ from BENCHMARK.json: "
                        f"{sorted(set(metrics) ^ set(units))}")
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units.get(k, "")}
                    for k, v in metrics.items()},
    }))
    sys.stdout.flush()
    return 0


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


if __name__ == "__main__":
    sys.exit(main())
