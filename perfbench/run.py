#!/usr/bin/env python3
"""Solve-cascade benchmark for ncsched.

Drives the library from one single-threaded process through the path a user
takes -- ``generate_instance -> solve_instance -> write_report`` -- over the
seeded workloads in ``workloads.py``, and checks every answer independently:
each written report is read back, its control matrix is replayed with the
simulator, and per-slot occupancy is recounted from the schedule.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-demo --seed 12345 --seconds 25 --trace 0
    python3 perfbench/run.py --all --seed 12345 --seconds 25 --trace 0

Instance k of a run uses seed ``--seed + k``. ``--trace 0`` measures the
end-to-end metrics; ``--trace 1`` binds the timing wrappers of ``spans.py``
over the library's layer entry points and reports per-layer metrics. The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are a table of every metric
and a ``detail:`` JSON line with outcomes, digests, counts and environment.
The process exits 0 when every answer checked out, 1 when one was wrong, and
2 when the benchmark could not run at all (for example, no library source).
"""

from __future__ import annotations

import os

# Pinned before numpy loads: BLAS reads its thread count once, at load time.
THREAD_ENV = {
    "NCS_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

from workloads import VALUE_RANGE, WORKLOADS, Workload  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 6
P90_MIN_SOLVES = 100
PROBE_PERIOD = 0.1  # s between host-speed samples
PROBE_STEPS = 300
PROBE_A = np.array([[0.6, 0.3], [-0.4, 0.5]])
# the probe's typical time, with a child import running beside it, on the
# 2-vCPU VM the benchmark was tuned on; setup_s is given in seconds at that speed
PROBE_NOMINAL_S = 2.5e-3
ERROR_TRACEBACKS = 3  # escaped errors whose traceback goes to stderr

# Every end-to-end metric the table prints; the result line carries the ones
# BENCHMARK.json names. Shared cloud vCPUs switch between a fast and a ~2x
# slower state for seconds to minutes at a time, which moved the lower
# quartile of 25 s runs of one workload by 0.5 of its median on a 2-vCPU VM.
# So each attempt is also timed in units of a fixed reference loop sampled
# while it runs (the *_ref_* metrics; see SpeedProbe); the seconds, and ref_s
# to convert, are printed too. setup_s is scaled the same way, to seconds at
# the speed of PROBE_NOMINAL_S; setup_wall_s is the raw median. plants_per_s
# and failed_share are 0 on
# some workloads and solve_s_p90 needs P90_MIN_SOLVES samples, so those three
# stay out of the result line.
END_TO_END_UNITS = {
    "e2e_ref_p50": "ref",
    "solve_ref_p50": "ref",
    "ref_s": "s",
    "plants_per_s": "plants/s",
    "e2e_s_p50": "s",
    "solve_s_p50": "s",
    "solve_s_p90": "s",
    "setup_s": "s",
    "setup_wall_s": "s",
    "peak_rss_mb": "MB",
    "failed_share": "share",
    "peak_state_log10_p50": "log10",
    "makespan_p50": "slots",
}

# per-layer metric -> self time of this span name, per instance
LAYER_TIMES = {
    "instances.generate_s": "instances.generate",
    "core.open_loop_scan_s": "core.open_loop_scan",
    "core.reachability_s": "core.reachability",
    "planner.preprocess_s": "planner.preprocess",
    "planner.plan_search_s": "planner.plan_search",
    "planner.check_s": "planner.check",
    "planner.assemble_s": "planner.assemble",
    "deadbeat.window_s": "deadbeat.window",
    "sim.verify_s": "sim.verify",
    "sim.rollout_s": "sim.rollout",
    "sim.state_norms_s": "sim.state_norms",
    "sim.extract_schedule_s": "sim.extract_schedule",
    "sparse.relax_s": "sparse.relax",
    "sparse.lp_s": "sparse.lp",
    "sparse.rip_s": "sparse.rip",
    "sparse.brute_s": "sparse.brute",
    "report.serialize_s": "report.serialize",
}
# per-layer metric -> exact count, per instance
LAYER_COUNTS = {
    "core.open_loop_scans": "core.open_loop_scan",
    "core.reachability_checks": "core.reachability",
    "deadbeat.windows": "deadbeat.window",
    "sim.plant_steps": "sim.plant_steps",
    "sparse.lp_solves": "sparse.lp",
    "sparse.rip_supports": "sparse.rip_supports",
    "pipeline.routes_tried": "pipeline.routes_tried",
    "report.bytes": "report.bytes",
}
# counts the self-check requires to repeat exactly
EXACT_COUNTS = (
    "core.open_loop_scan",
    "core.reachability",
    "sim.plant_steps",
    "deadbeat.window",
    "sparse.lp",
    "sparse.rip_supports",
)


def import_library():
    """Import ncsched from this checkout's source tree, never from elsewhere."""
    if not (SRC / "ncsched" / "__init__.py").is_file():
        raise ImportError(f"no library source at {SRC / 'ncsched'}")
    sys.path.insert(0, str(SRC))
    import ncsched
    import ncsched.report

    if Path(ncsched.__file__).resolve().parent != (SRC / "ncsched").resolve():
        raise ImportError(f"ncsched resolved to {ncsched.__file__}, outside {SRC}")
    return ncsched


class SpeedProbe:
    """Samples of how fast the host runs, taken while attempts run.

    Every PROBE_PERIOD seconds a SIGALRM handler times a fixed loop of small
    numpy steps -- the same kind of work as the library's per-plant loops, and
    independent of the library -- and records (start, duration). ``clock()``
    is perf_counter minus the time the probe itself used, so sections timed
    with it leave the probe out.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self.spent = 0.0

    def _sample(self, signum, frame) -> None:
        t0 = perf_counter()
        x = np.ones(2)
        for _ in range(PROBE_STEPS):
            x = PROBE_A @ x + 0.1
            np.linalg.norm(x)
        dt = perf_counter() - t0
        self.samples.append((t0, dt))
        self.spent += dt

    def clock(self) -> float:
        return perf_counter() - self.spent

    @contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD, PROBE_PERIOD)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def around(self, start: float, end: float) -> float:
        """Mean probe time over [start, end], widened to hold 3 samples.

        An attempt's duration sums the host's speed over its whole span, so
        the time average -- the mean of evenly spaced samples -- matches it.
        """
        pad = 0.0
        while True:
            inside = [dt for t, dt in self.samples if start - pad <= t <= end + pad]
            if len(inside) >= 3 or pad > 60:
                return statistics.fmean(inside) if inside else math.nan
            pad += PROBE_PERIOD


class SetupTimer:
    """Wall times of fresh interpreters running ``import ncsched``.

    A run takes SETUP_REPEATS of them spread evenly over its measuring time,
    between attempts, so that they sample the host as the attempts do. The
    probe keeps sampling in this process while each child imports; each
    wall time is also scaled by PROBE_NOMINAL_S / (probe time around it).
    """

    def __init__(self, probe: SpeedProbe, seconds: float):
        self.probe = probe
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), self.env.get("PYTHONPATH")]))
        self.start = perf_counter()
        self.spacing = seconds / SETUP_REPEATS
        self.walls: list[float] = []
        self.scaled: list[float] = []

    def time_one(self) -> None:
        t0 = perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import ncsched"],
            env=self.env, cwd=ROOT, check=True, timeout=120,
            stdout=subprocess.DEVNULL,
        )
        t1 = perf_counter()
        self.walls.append(t1 - t0)
        self.scaled.append(self.walls[-1] * PROBE_NOMINAL_S / self.probe.around(t0, t1))

    def when_due(self) -> None:
        """Take the next import if the run has reached its turn."""
        n = len(self.walls)
        if n < SETUP_REPEATS and perf_counter() >= self.start + n * self.spacing:
            self.time_one()

    def finish(self) -> None:
        while len(self.walls) < SETUP_REPEATS:
            self.time_one()


@dataclass
class Attempt:
    """One instance's pass through the pipeline, and what the checks found."""

    plants: int
    gen_s: float
    solve_s: float
    start: float = 0.0  # perf_counter span of the whole attempt
    end: float = 0.0
    write_s: float = 0.0
    outcome: str = ""
    digest: str = ""
    problems: list[str] = field(default_factory=list)
    routes_tried: int = 0
    timings_gap: float | None = None
    peak_log10: float = 0.0
    makespan: int = 0

    @property
    def e2e_s(self) -> float:
        return self.gen_s + self.solve_s + self.write_s


def solve(lib, inst, clock=perf_counter):
    """Run the cascade; returns (outcome class, report or None, error, wall s).

    Every exception escaping ``solve_instance`` is classified, never raised:
    a benchmark run survives any single attempt.
    """
    t0 = clock()
    try:
        rep = lib.solve_instance(inst)
    except lib.NoSolutionFoundError as exc:
        return f"no_solution:{exc.code}", None, exc, clock() - t0
    except Exception as exc:  # noqa: BLE001 - classified as error:<type> and reported
        return f"error:{type(exc).__name__}", None, exc, clock() - t0
    wall = clock() - t0
    return ("verified" if rep.verified else "wrong"), rep, None, wall


def answer_digest(lib, outcome: str, rep, error) -> str:
    """sha256 of an answer: its canonical report JSON, or the verdict text."""
    if rep is not None:
        data = lib.report.dump_json(lib.report.report_to_dict(rep)).encode()
    else:
        data = "\n".join([outcome, str(error), *getattr(error, "reasons", ())]).encode()
    return hashlib.sha256(data).hexdigest()


def routes_tried(rep, error) -> int:
    if rep is not None:
        return sum(1 for k in rep.timings if k != "total")
    routes = ("lane-plan:", "block-plan:", "relaxation:", "bruteforce:")
    return sum(1 for line in getattr(error, "reasons", ()) if line.startswith(routes))


def check_written(lib, inst, rep, path: Path) -> list[str]:
    """Independent check of a written report; returns the problems found."""
    problems = []
    back = lib.read_report(path)
    control = np.asarray(back.control, dtype=float)
    if not np.array_equal(control, np.asarray(rep.control)):
        problems.append("control matrix changed on the way through the report file")
    replay = lib.sim.verify_logic(inst, lib.ControlLogic(control))
    if not replay.verified:
        problems.append("replay failed: " + "; ".join(replay.violations))
    active = control != 0
    occupancy = active.sum(axis=0)
    if occupancy.max(initial=0) > inst.capacity:
        problems.append(f"slot occupancy {occupancy.max()} exceeds capacity {inst.capacity}")
    slots = [(np.flatnonzero(active[:, t]) + 1).tolist() for t in range(inst.horizon)]
    if slots != back.schedule:
        problems.append("schedule differs from the control matrix's nonzero pattern")
    return problems


def open_loop_peak(inst) -> float:
    """Largest state norm over the horizon with no input applied."""
    peak = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for p, x in zip(inst.plants, inst.xi):
            for _ in range(inst.horizon + 1):
                peak = max(peak, float(np.linalg.norm(x)))
                x = p.A @ x
    return peak


def score(attempt: Attempt, inst, rep) -> None:
    """Schedule quality. An attempt without a verified schedule leaves its
    plants coasting open-loop (peak = open-loop peak) and does not finish
    inside the horizon (makespan = T + 1)."""
    if attempt.outcome == "verified":
        peak = max(max(series) for series in rep.state_norms)
        cols = np.flatnonzero((np.asarray(rep.control) != 0).any(axis=0))
        attempt.makespan = int(cols[-1]) + 1 if cols.size else 0
    else:
        peak = open_loop_peak(inst)
        attempt.makespan = inst.horizon + 1
    attempt.peak_log10 = math.log10(peak) if 0 < peak < math.inf else 308.0


def report_path(wl: Workload) -> Path:
    """Where this process writes each report (one file, overwritten)."""
    return OUT_DIR / f"{wl.name}-{os.getpid()}.json"


class Runner:
    """One workload run: generation, solve, write and checks per instance."""

    def __init__(self, lib, wl: Workload, seed: int, tracer=None, clock=perf_counter):
        self.clock = clock
        self.lib = lib
        self.wl = wl
        self.seed = seed
        self.tracer = tracer
        self.report_path = report_path(wl)
        self.errors_shown = 0

    def generate(self, k: int):
        wl = self.wl
        t0 = self.clock()
        rec = self.lib.generate_instance(
            len(wl.dims), wl.capacity, wl.horizon, list(wl.dims),
            value_range=VALUE_RANGE, seed=self.seed + k,
        )
        return rec.instance, self.clock() - t0

    def classify(self, a: Attempt, k: int, inst, rep, error) -> None:
        """Write a returned report, then check and score the answer."""
        a.routes_tried = routes_tried(rep, error)
        if a.outcome.startswith("error:") and self.errors_shown < ERROR_TRACEBACKS:
            self.errors_shown += 1
            print(f"perfbench: {a.outcome} escaped solve_instance on seed {self.seed + k}:",
                  file=sys.stderr)
            traceback.print_exception(error, file=sys.stderr)
        if rep is None:
            a.digest = answer_digest(self.lib, a.outcome, rep, error)
        else:
            t0 = self.clock()
            self.write(rep)
            a.write_s = self.clock() - t0
            if rep.timings.get("total"):
                a.timings_gap = 1.0 - rep.timings["total"] / a.solve_s
            a.digest = hashlib.sha256(self.report_path.read_bytes()).hexdigest()
            a.problems = check_written(self.lib, inst, rep, self.report_path)
            if a.problems:
                a.outcome = "wrong"
        score(a, inst, rep)

    def write(self, rep) -> None:
        if self.tracer is None:
            self.lib.write_report(self.report_path, rep)
            return
        with self.tracer.span("report.serialize"):
            self.lib.write_report(self.report_path, rep)
        self.tracer.counts[self.tracer.instance]["report.bytes"] += self.report_path.stat().st_size

    def untraced(self, k: int) -> Attempt:
        start = perf_counter()
        inst, gen_s = self.generate(k)
        outcome, rep, error, wall = solve(self.lib, inst, self.clock)
        a = Attempt(plants=inst.n, gen_s=gen_s, solve_s=wall, outcome=outcome, start=start)
        self.classify(a, k, inst, rep, error)
        a.end = perf_counter()
        return a

    def traced(self, k: int, tag=None) -> tuple[Attempt, float, str]:
        """Generate and solve traced; also solve untraced, in alternating order.

        Spans and counts are filed under ``tag`` (default k). Returns the
        traced attempt, the untraced solve wall time and the untraced answer's
        digest, which must match the traced one.
        """
        tr = self.tracer
        tr.instance = k if tag is None else tag
        with tr.span("instances.generate"):
            inst, gen_s = self.generate(k)
        runs = {}
        for traced in ((False, True) if k % 2 == 0 else (True, False)):
            if traced:
                with tr.installed(), tr.span("pipeline.solve"):
                    runs[True] = solve(self.lib, inst)
            else:
                runs[False] = solve(self.lib, inst)
        outcome, rep, error, wall = runs[True]
        a = Attempt(plants=inst.n, gen_s=gen_s, solve_s=wall, outcome=outcome)
        self.classify(a, k, inst, rep, error)
        tr.counts[tr.instance]["pipeline.routes_tried"] += a.routes_tried
        u_outcome, u_rep, u_error, u_wall = runs[False]
        return a, u_wall, answer_digest(self.lib, u_outcome, u_rep, u_error)


def loop(seconds: float, minimum: int, step) -> list:
    """Call step(k) for k = 0, 1, ...: at least ``minimum`` times, and until
    ``seconds`` have passed (the call in progress then finishes)."""
    out = []
    t_end = perf_counter() + seconds
    while len(out) < minimum or perf_counter() < t_end:
        out.append(step(len(out)))
    return out


def median(values, default=0.0) -> float:
    values = list(values)
    return statistics.median(values) if values else default


def environment(cpu0, steal0, wall_s: float) -> dict:
    """Versions, thread settings and CPU accounting for this run."""
    import scipy

    usage = resource.getrusage(resource.RUSAGE_SELF)
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # noqa: BLE001 - numpy builds differ in what they expose
        blas = "unknown"
    steal1 = read_steal()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "thread_env": THREAD_ENV,
        "cpu_s": usage.ru_utime + usage.ru_stime - cpu0,
        "wall_s": wall_s,
        "steal_ticks": None if steal0 is None or steal1 is None else steal1 - steal0,
    }


def read_steal() -> int | None:
    """Machine-wide steal time in clock ticks, from /proc/stat (Linux only)."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def run_end_to_end(lib, wl: Workload, args) -> tuple[list[Attempt], dict, dict]:
    with SpeedProbe().running() as probe:
        setup = SetupTimer(probe, args.seconds)
        runner = Runner(lib, wl, args.seed, clock=probe.clock)

        def step(k: int) -> Attempt:
            setup.when_due()
            return runner.untraced(k)

        attempts = loop(args.seconds, wl.check_instances, step)
        setup.finish()
    around = [probe.around(a.start, a.end) for a in attempts]
    solves = [a.solve_s for a in attempts]
    e2e = [a.e2e_s for a in attempts]
    verified = [a for a in attempts if a.outcome == "verified"]
    metrics = {
        "e2e_ref_p50": statistics.median(t / r for t, r in zip(e2e, around)),
        "solve_ref_p50": statistics.median(t / r for t, r in zip(solves, around)),
        "ref_s": statistics.median(around),
        "plants_per_s": sum(a.plants for a in verified) / sum(e2e),
        "e2e_s_p50": statistics.median(e2e),
        "solve_s_p50": statistics.median(solves),
        "solve_s_p90": (
            statistics.quantiles(solves, n=10)[-1] if len(solves) >= P90_MIN_SOLVES else None
        ),
        "setup_s": statistics.median(setup.scaled),
        "setup_wall_s": statistics.median(setup.walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failed_share": 1.0 - len(verified) / len(attempts),
        "peak_state_log10_p50": statistics.median(a.peak_log10 for a in attempts),
        "makespan_p50": statistics.median(a.makespan for a in attempts),
    }
    detail = {
        "setup_walls": setup.walls,
        "setup_scaled": setup.scaled,
        "solves": len(solves),
        "solve_s_p90_note": (
            None if metrics["solve_s_p90"] is not None
            else f"{len(solves)} solves < {P90_MIN_SOLVES}; p90 not reported"
        ),
    }
    return attempts, metrics, detail


def run_traced(lib, wl: Workload, args) -> tuple[list[Attempt], dict, dict]:
    from spans import Tracer

    tracer = Tracer()
    runner = Runner(lib, wl, args.seed, tracer)
    rows = loop(args.seconds, wl.check_instances, runner.traced)
    attempts = [a for a, _, _ in rows]
    ids = range(len(rows))
    mismatched = [k for k, (a, _, untraced) in enumerate(rows) if a.digest != untraced]

    # the self-check: instance 0 again, traced, must repeat its counts and answer
    again, _, _ = runner.traced(0, tag="recheck")
    exact = {name: tracer.counts[0][name] for name in EXACT_COUNTS}
    exact_again = {name: tracer.counts["recheck"][name] for name in EXACT_COUNTS}

    n = len(rows)
    times = tracer.self_times(ids)
    counts = tracer.total_counts(ids)
    metrics = {name: times[span] / n for name, span in LAYER_TIMES.items()}
    metrics.update({name: counts[key] / n for name, key in LAYER_COUNTS.items()})
    routes = counts["pipeline.routes_tried"]
    failed_routes = sum(a.routes_tried - (a.outcome == "verified") for a in attempts)
    searches = counts["planner.plan_search"]
    rips = counts["sparse.rip"]
    solve_total = sum(a.solve_s for a in attempts)
    gaps = [a.timings_gap for a in attempts if a.timings_gap is not None]
    metrics.update({
        "planner.plan_found_ratio": counts["planner.plans_found"] / searches if searches else 0.0,
        "sparse.rip_certified_ratio": counts["sparse.rip_certified"] / rips if rips else 0.0,
        "pipeline.route_fail_ratio": failed_routes / routes if routes else 0.0,
        "pipeline.timings_gap_share": median(gaps),
        "trace.overhead_s": median(a.solve_s for a in attempts) - median(u for _, u, _ in rows),
        "trace.uncovered_share": times["pipeline.solve"] / solve_total,
        "trace.untraced_targets": float(len(tracer.untraced)),
    })
    layers: dict[str, float] = {}
    for name, t in times.items():
        layer = name.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + t
    total = sum(layers.values())
    detail = {
        "untraced": tracer.untraced,
        "layer_self_share": {k: v / total for k, v in sorted(layers.items(), key=lambda kv: -kv[1])},
        "ratio_bases": {
            "planner.plan_search_calls": searches,
            "sparse.rip_calls": rips,
            "pipeline.routes_tried": routes,
            "verified_with_timings": len(gaps),
        },
        "untraced_solve_s_p50": median(u for _, u, _ in rows),
        "traced_solve_s_p50": median(a.solve_s for a in attempts),
        "reports_match_untraced": not mismatched,
        "reports_match_recheck": again.digest == attempts[0].digest,
        "counts_instance0": exact,
        "counts_match_recheck": exact == exact_again,
        "spans_recorded": len(tracer.spans),
    }
    detail["self_check_passed"] = (
        not mismatched and detail["reports_match_recheck"] and detail["counts_match_recheck"]
    )
    if mismatched:
        print(f"perfbench: traced and untraced answers differ on instances {mismatched}",
              file=sys.stderr)
    return attempts, metrics, detail


def run_one(args) -> int:
    try:
        lib = import_library()
    except ImportError as exc:
        print(f"perfbench: cannot load the library: {exc}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    OUT_DIR.mkdir(exist_ok=True)

    usage = resource.getrusage(resource.RUSAGE_SELF)
    cpu0, steal0, t0 = usage.ru_utime + usage.ru_stime, read_steal(), perf_counter()
    try:
        run = run_traced if args.trace else run_end_to_end
        attempts, metrics, detail = run(lib, wl, args)
    finally:
        report_path(wl).unlink(missing_ok=True)
    wall_s = perf_counter() - t0

    outcomes: dict[str, int] = {}
    for a in attempts:
        outcomes[a.outcome] = outcomes.get(a.outcome, 0) + 1
    failed = [
        a for a in attempts
        if a.outcome != "verified"
        and a.outcome.removeprefix("no_solution:") not in wl.accepted_no_solution
    ]
    wrong = [a for a in attempts if a.outcome == "wrong"]
    digest = hashlib.sha256("".join(a.digest for a in attempts[: wl.check_instances]).encode())
    correct = not wrong and detail.get("self_check_passed", True)

    units = {m["name"]: m["unit"] for m in wanted}
    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  "
          f"attempts {len(attempts)}  outcomes {outcomes}")
    for name, value in metrics.items():
        unit = units.get(name) or END_TO_END_UNITS.get(name, "")
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<28} {shown:>14} {unit}")
    detail.update({
        "workload": wl.name,
        "seed": args.seed,
        "outcomes": outcomes,
        "report_sha256": digest.hexdigest(),
        "digested_instances": min(len(attempts), wl.check_instances),
        "problems": [p for a in wrong for p in a.problems][:10],
        "environment": environment(cpu0, steal0, wall_s),
    })
    print("detail: " + json.dumps(detail, sort_keys=True))
    if wrong:
        print(f"perfbench: {len(wrong)} WRONG answers on {wl.name}: {detail['problems']}",
              file=sys.stderr)
    missing = [name for name in units if metrics.get(name) is None]
    if missing:
        print(f"perfbench: metrics not produced: {missing}", file=sys.stderr)
        return 2
    result = {
        "correct": bool(correct),
        "attempted": len(attempts),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process, so peak RSS stays per workload."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        print("\n".join(line for line in lines[:-1] if not line.startswith("detail: ")))
        status = status or proc.returncode
    return status


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=sorted(WORKLOADS))
    which.add_argument("--all", action="store_true", help="run every workload in turn")
    parser.add_argument("--seed", type=int, default=12345, help="base seed (default 12345)")
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="measuring time; at least the check instances always run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.all else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
