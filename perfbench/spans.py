"""Span tracing bound over ncsched's layer entry points from outside the library.

``Tracer`` replaces the module attributes listed in ``TARGETS`` with timing
wrappers while ``installed()`` is active, and puts the originals back on exit.
Each call records a ``Span`` (name, start, end, parent, instance id) and bumps
the exact counts of the current instance. A span's self time is its duration
minus that of its direct children; the benchmark is single-threaded, so
children never overlap.

A target the library no longer has (a helper renamed or deleted) is listed in
``Tracer.untraced`` instead of failing; its time then shows up as the self
time of the enclosing span.
"""

from __future__ import annotations

import functools
import importlib
import math
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import NamedTuple


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _plant_steps(counts, args, kwargs, result):
    counts["sim.plant_steps"] += len(_arg(args, kwargs, 2, "u"))


def _rip_supports(counts, args, kwargs, result):
    # rip_delta raises above its enumeration cap, so a returned call
    # enumerated exactly C(width, order) supports
    width = _arg(args, kwargs, 0, "gamma").shape[1]
    counts["sparse.rip_supports"] += math.comb(width, _arg(args, kwargs, 1, "order"))
    counts["sparse.rip_certified"] += bool(result.certified)


def _plan_found(counts, args, kwargs, result):
    counts["planner.plans_found"] += result is not None


# (module, attribute, span name, count hook run after a successful return).
# The pipeline imports its planner, sim and sparse entry points by name, so
# those are bound in ncsched.pipeline; helpers called inside a module are
# bound in that module.
TARGETS = (
    ("ncsched.pipeline", "split_open_loop", "planner.preprocess", None),
    ("ncsched.planner", "open_loop_hit_time", "core.open_loop_scan", None),
    ("ncsched.planner", "is_reachable", "core.reachability", None),
    ("ncsched.deadbeat", "is_reachable", "core.reachability", None),
    ("ncsched.sparse", "is_reachable", "core.reachability", None),
    ("ncsched.pipeline", "_require_reachable", "planner.check", None),
    ("ncsched.pipeline", "_check_lane_plan", "planner.check", None),
    ("ncsched.pipeline", "_check_block_plan", "planner.check", None),
    ("ncsched.pipeline", "_lane_plan_for", "planner.plan_search", _plan_found),
    ("ncsched.pipeline", "_block_plan_for", "planner.plan_search", _plan_found),
    ("ncsched.pipeline", "_exhaustive_lane_for", "planner.plan_search", _plan_found),
    ("ncsched.pipeline", "_exhaustive_block_for", "planner.plan_search", _plan_found),
    ("ncsched.pipeline", "_lane_offsets", "planner.assemble", None),
    ("ncsched.pipeline", "_block_offsets", "planner.assemble", None),
    ("ncsched.pipeline", "_assemble", "planner.assemble", None),
    ("ncsched.planner", "make_window", "deadbeat.window", None),
    ("ncsched.pipeline", "verify_logic", "sim.verify", None),
    ("ncsched.sparse", "simulate", "sim.verify", None),
    ("ncsched.sim", "rollout", "sim.rollout", _plant_steps),
    ("ncsched.sim", "SimulationResult.state_norms", "sim.state_norms", None),
    ("ncsched.pipeline", "extract_schedule", "sim.extract_schedule", None),
    ("ncsched.pipeline", "solve_via_relaxation", "sparse.relax", None),
    ("ncsched.sparse", "min_l1", "sparse.lp", None),
    ("ncsched.sparse", "rip_delta", "sparse.rip", _rip_supports),
    ("ncsched.pipeline", "l0_feasible_bruteforce", "sparse.brute", None),
)


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    instance: object
    self_s: float


def _resolve(module_name: str, attr: str):
    """(owner, leaf name) for a dotted attribute, or None when it is gone."""
    owner = importlib.import_module(module_name)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    if owner is None or not callable(getattr(owner, leaf, None)):
        return None
    return owner, leaf


class Tracer:
    """Timing wrappers over the library's layer entry points, plus their records."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: defaultdict[object, Counter] = defaultdict(Counter)
        self.instance: object = None
        self.untraced: list[str] = []
        self._stack: list[list] = []  # open spans: [id, name, start, child time]
        self._next_id = 0
        self._patches = []
        for module_name, attr, name, hook in TARGETS:
            found = _resolve(module_name, attr)
            if found is None:
                self.untraced.append(f"{module_name}.{attr}")
                continue
            owner, leaf = found
            original = getattr(owner, leaf)
            self._patches.append((owner, leaf, original, self._wrap(original, name, hook)))

    def _enter(self, name: str) -> None:
        self.counts[self.instance][name] += 1
        self._stack.append([self._next_id, name, perf_counter(), 0.0])
        self._next_id += 1

    def _exit(self) -> None:
        end = perf_counter()
        span_id, name, start, child_s = self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += end - start
        self.spans.append(
            Span(span_id, name, start, end, parent and parent[0], self.instance,
                 end - start - child_s)
        )

    @contextmanager
    def span(self, name: str):
        """Record one span around a block of the benchmark's own code."""
        self._enter(name)
        try:
            yield
        finally:
            self._exit()

    def _wrap(self, fn, name: str, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit()
            if hook is not None:
                hook(self.counts[self.instance], args, kwargs, result)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Bind the wrappers in place of the library's entry points."""
        for owner, leaf, _, wrapper in self._patches:
            setattr(owner, leaf, wrapper)
        try:
            yield
        finally:
            for owner, leaf, original, _ in self._patches:
                setattr(owner, leaf, original)

    def self_times(self, instances) -> Counter:
        """Total self time per span name over the given instance ids."""
        wanted = set(instances)
        out: Counter = Counter()
        for s in self.spans:
            if s.instance in wanted:
                out[s.name] += s.self_s
        return out

    def total_counts(self, instances) -> Counter:
        out: Counter = Counter()
        for k in instances:
            out.update(self.counts[k])
        return out
