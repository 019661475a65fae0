"""Partition search and constructive schedule assembly.

Two constructive layouts are supported. A *block plan* slices the horizon
into consecutive segments and serves one group of at most M plants per
segment, every group member getting a steering window spanning the whole
segment. A *lane plan* runs at most M parallel queues; each queue serves its
plants back-to-back with per-plant window lengths, so at any instant at most
one plant per lane is active.

The searches here are deterministic heuristics: failure to find a plan means
this heuristic found none, not that none exists. The exhaustive variants (for
at most 10 plants) are complete and double as oracles for the heuristics.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    ZERO_RTOL,
    ControlLogic,
    NcsInstance,
    full_rank,
    group_by_dim,
    open_loop_hit_times,
    reach_matrices,
)
from .deadbeat import deadbeat_bursts, raise_in_order
from .errors import NotReachableError, TooLargeError, WindowOverflowError

EXHAUSTIVE_LIMIT = 10


@dataclass(frozen=True)
class BlockPlan:
    """Consecutive horizon segments: group j owns [offsets[j], offsets[j]+block_lengths[j])."""

    blocks: tuple[tuple[int, ...], ...]
    block_lengths: tuple[int, ...]
    offsets: tuple[int, ...]

    def total_length(self) -> int:
        return sum(self.block_lengths)

    def to_report_dict(self) -> dict:
        return {
            "kind": "block",
            "blocks": [[i + 1 for i in blk] for blk in self.blocks],
            "lengths": list(self.block_lengths),
            "offsets": list(self.offsets),
        }


@dataclass(frozen=True)
class LanePlan:
    """Parallel queues; lane members are served sequentially in listed order."""

    lanes: tuple[tuple[int, ...], ...]
    widths: dict[int, int]

    def lane_loads(self) -> tuple[int, ...]:
        return tuple(sum(self.widths[i] for i in lane) for lane in self.lanes)

    def to_report_dict(self) -> dict:
        return {
            "kind": "lane",
            "lanes": [[i + 1 for i in lane] for lane in self.lanes],
            "widths": [[i + 1, self.widths[i]] for i in sorted(self.widths)],
        }


def check_necessary(inst: NcsInstance) -> bool:
    """Pigeonhole bound: T slots of capacity M can serve N plants only if T >= ceil(N/M).

    A False return proves infeasibility whenever no plant's state reaches zero
    open-loop within the horizon.
    """
    return inst.horizon >= math.ceil(inst.n / inst.capacity)


def split_open_loop(
    inst: NcsInstance, zero_rtol: float = ZERO_RTOL
) -> tuple[dict[int, int], list[int]]:
    """Partition plants into open-loop-zeroable (with hit times) and the rest."""
    taus = np.zeros(inst.n, dtype=int)
    for g in group_by_dim(inst):
        taus[g.idx] = open_loop_hit_times(g.A, g.xi, inst.horizon, zero_rtol)
    hits = {i: int(tau) for i, tau in enumerate(taus) if tau}
    closed = [i for i, tau in enumerate(taus) if not tau]
    return hits, closed


def _require_reachable(inst: NcsInstance, subset) -> None:
    bad = []
    for g in group_by_dim(inst, subset):
        bad.extend(g.idx[~full_rank(reach_matrices(g.A, g.b))].tolist())
    if bad:
        raise NotReachableError(sorted(bad))


def _default_widths(inst: NcsInstance, subset) -> dict[int, int]:
    # shortest window the constructions allow: one step beyond the dimension
    return {i: inst.plants[i].d + 1 for i in subset}


def _block_plan_for(inst: NcsInstance, subset) -> BlockPlan | None:
    subset = sorted(subset)
    n_blocks = math.ceil(len(subset) / inst.capacity)
    ordered = sorted(subset, key=lambda i: (-inst.plants[i].d, i))
    blocks = [
        tuple(sorted(ordered[k * inst.capacity : (k + 1) * inst.capacity]))
        for k in range(n_blocks)
    ]
    lengths = [1 + max(inst.plants[i].d for i in blk) for blk in blocks]
    if sum(lengths) > inst.horizon:
        return None
    offsets, acc = [], 0
    for w in lengths:
        offsets.append(acc)
        acc += w
    return BlockPlan(
        blocks=tuple(blocks),
        block_lengths=tuple(lengths),
        offsets=tuple(offsets),
    )


def _lane_plan_for(inst: NcsInstance, subset) -> LanePlan | None:
    widths = _default_widths(inst, subset)
    members: list[list[int]] = [[] for _ in range(inst.capacity)]
    # balanced decreasing packing: biggest windows first, each into the least
    # loaded lane, ties to the lowest lane index; if that lane cannot take the
    # window, no lane can
    loads = [(0, j) for j in range(inst.capacity)]  # a heap on (load, lane)
    for i in sorted(widths, key=lambda i: (-widths[i], i)):
        load, j = loads[0]
        if load + widths[i] > inst.horizon:
            return None
        heapq.heapreplace(loads, (load + widths[i], j))
        members[j].append(i)
    lanes = sorted((sorted(m) for m in members if m), key=lambda lane: lane[0])
    return LanePlan(lanes=tuple(tuple(lane) for lane in lanes), widths=widths)


def find_block_plan(inst: NcsInstance) -> BlockPlan | None:
    """Search for a valid block plan covering every plant; None if the heuristic fails.

    Plants are sorted by descending dimension and chunked into ceil(N/M)
    groups of at most M; each group's segment length is one more than its
    largest member dimension. Deterministic for a given instance.
    """
    _require_reachable(inst, range(inst.n))
    return _block_plan_for(inst, range(inst.n))


def find_lane_plan(inst: NcsInstance) -> LanePlan | None:
    """Search for a valid lane plan covering every plant; None if the packing fails."""
    _require_reachable(inst, range(inst.n))
    return _lane_plan_for(inst, range(inst.n))


def _partitions(items: list[int], max_parts: int, max_size: int):
    """All set partitions of ``items`` into at most max_parts parts of at most max_size.

    Canonical enumeration: each item joins an earlier part or opens a new one,
    so the first part always holds the first item. Deterministic.
    """
    parts: list[list[int]] = []

    def rec(k: int):
        if k == len(items):
            yield [tuple(p) for p in parts]
            return
        for p in parts:
            if len(p) < max_size:
                p.append(items[k])
                yield from rec(k + 1)
                p.pop()
        if len(parts) < max_parts:
            parts.append([items[k]])
            yield from rec(k + 1)
            parts.pop()

    if not items:
        yield []
        return
    yield from rec(0)


def _exhaustive_block_for(
    inst: NcsInstance, subset, limit: int = EXHAUSTIVE_LIMIT
) -> BlockPlan | None:
    subset = sorted(subset)
    if len(subset) > limit:
        raise TooLargeError(
            f"exhaustive search limited to {limit} plants, got {len(subset)}"
        )
    n_blocks = math.ceil(len(subset) / inst.capacity)
    for parts in _partitions(subset, n_blocks, inst.capacity):
        lengths = [1 + max(inst.plants[i].d for i in blk) for blk in parts]
        cost = sum(lengths) + (n_blocks - len(parts))
        if cost > inst.horizon:
            continue
        blocks = [tuple(sorted(blk)) for blk in parts] + [()] * (n_blocks - len(parts))
        lengths = lengths + [1] * (n_blocks - len(parts))
        offsets, acc = [], 0
        for w in lengths:
            offsets.append(acc)
            acc += w
        return BlockPlan(
            blocks=tuple(blocks),
            block_lengths=tuple(lengths),
            offsets=tuple(offsets),
        )
    return None


def exhaustive_block_plan(inst: NcsInstance, limit: int = EXHAUSTIVE_LIMIT) -> BlockPlan | None:
    """Complete block-plan search for small instances; None proves nonexistence.

    Minimal segment lengths (1 + largest member dimension) are used, and any
    group slot left unused still costs one step, so a None result rules out
    every admissible choice of groups and lengths.
    """
    _require_reachable(inst, range(inst.n))
    return _exhaustive_block_for(inst, range(inst.n), limit)


def _exhaustive_lane_for(
    inst: NcsInstance, subset, limit: int = EXHAUSTIVE_LIMIT
) -> LanePlan | None:
    subset = sorted(subset)
    if len(subset) > limit:
        raise TooLargeError(
            f"exhaustive search limited to {limit} plants, got {len(subset)}"
        )
    widths = _default_widths(inst, subset)
    for parts in _partitions(subset, inst.capacity, max(len(subset), 1)):
        if all(sum(widths[i] for i in lane) <= inst.horizon for lane in parts):
            lanes = sorted((tuple(sorted(lane)) for lane in parts), key=lambda lane: lane[0])
            return LanePlan(lanes=tuple(lanes), widths=widths)
    return None


def exhaustive_lane_plan(inst: NcsInstance, limit: int = EXHAUSTIVE_LIMIT) -> LanePlan | None:
    """Complete lane-plan search for small instances; None proves nonexistence."""
    _require_reachable(inst, range(inst.n))
    return _exhaustive_lane_for(inst, range(inst.n), limit)


def block_plan_from_lanes(inst: NcsInstance, plan: LanePlan) -> BlockPlan:
    """Transpose an equal-length lane plan into a block plan.

    Group k collects the k-th member of every lane and spans the largest of
    their window lengths. Requires every lane to have the same number of
    members; the result satisfies the block-plan conditions whenever its total
    length fits the horizon.
    """
    sizes = {len(lane) for lane in plan.lanes}
    if len(sizes) != 1:
        raise ValueError("lane plan must have equal-length lanes to transpose")
    depth = sizes.pop()
    blocks = []
    lengths = []
    for k in range(depth):
        members = tuple(sorted(lane[k] for lane in plan.lanes))
        blocks.append(members)
        lengths.append(max(plan.widths[i] for i in members))
    offsets = [0]
    for w in lengths[:-1]:
        offsets.append(offsets[-1] + w)
    return BlockPlan(
        blocks=tuple(blocks), block_lengths=tuple(lengths), offsets=tuple(offsets)
    )


def _check_block_plan(inst: NcsInstance, plan: BlockPlan, cover: set[int]) -> None:
    seen: set[int] = set()
    if not (len(plan.blocks) == len(plan.block_lengths) == len(plan.offsets)):
        raise ValueError("block plan fields have mismatched lengths")
    for blk, width in zip(plan.blocks, plan.block_lengths):
        if len(blk) > inst.capacity:
            raise ValueError("block exceeds channel capacity")
        if seen & set(blk):
            raise ValueError("blocks are not disjoint")
        seen.update(blk)
        for i in blk:
            if width <= inst.plants[i].d:
                raise ValueError(
                    f"segment length {width} too short for plant {i + 1}"
                )
    if seen != cover:
        raise ValueError("blocks do not cover the expected plants")
    if plan.total_length() > inst.horizon:
        raise ValueError("block lengths exceed the horizon")
    expect = 0
    for off, width in zip(plan.offsets, plan.block_lengths):
        if off != expect:
            raise ValueError("offsets are not the running sum of lengths")
        expect = off + width


def _check_lane_plan(inst: NcsInstance, plan: LanePlan, cover: set[int]) -> None:
    if len(plan.lanes) > inst.capacity:
        raise ValueError("more lanes than channel capacity")
    seen: set[int] = set()
    for lane in plan.lanes:
        if seen & set(lane):
            raise ValueError("lanes are not disjoint")
        seen.update(lane)
        load = 0
        for i in lane:
            width = plan.widths[i]
            if width <= inst.plants[i].d:
                raise ValueError(f"window length {width} too short for plant {i + 1}")
            load += width
        if load > inst.horizon:
            raise ValueError("lane load exceeds the horizon")
    if seen != cover:
        raise ValueError("lanes do not cover the expected plants")


def _block_offsets(plan: BlockPlan) -> dict[int, tuple[int, int]]:
    out = {}
    for blk, off, width in zip(plan.blocks, plan.offsets, plan.block_lengths):
        for i in blk:
            out[i] = (off, width)
    return out


def _lane_offsets(plan: LanePlan) -> dict[int, tuple[int, int]]:
    out = {}
    for lane in plan.lanes:
        off = 0
        for i in lane:
            out[i] = (off, plan.widths[i])
            off += plan.widths[i]
    return out


def _assemble(inst: NcsInstance, placements: dict[int, tuple[int, int]]) -> ControlLogic:
    """Rows from per-plant (offset, width) placements; unplaced plants get zeros.

    The windows of each dimension are built as one stack; warnings and errors
    come out in plant order, as if the plants were done one at a time.
    """
    for _, (off, width) in sorted(placements.items()):
        if off + width > inst.horizon:
            raise WindowOverflowError(
                f"window [{off}, {off + width}) exceeds horizon {inst.horizon}"
            )
    u = np.zeros((inst.n, inst.horizon))
    problems: dict[int, tuple] = {}
    for g in group_by_dim(inst, placements):
        offsets, widths = np.array([placements[i] for i in g.idx]).T
        tails, found = deadbeat_bursts(g.A, g.b, g.xi, offsets, widths)
        problems.update((int(g.idx[k]), found[k]) for k in found)
        # each burst fills the last d slots of its window
        d = tails.shape[1]
        u[g.idx[:, None], (offsets + widths - d)[:, None] + np.arange(d)] = tails
    raise_in_order(problems)
    return ControlLogic(u)


def build_from_block_plan(inst: NcsInstance, plan: BlockPlan) -> ControlLogic:
    """Input rows for a validated block plan; at most M plants active per slot."""
    _check_block_plan(inst, plan, set(range(inst.n)))
    return _assemble(inst, _block_offsets(plan))


def build_from_lane_plan(inst: NcsInstance, plan: LanePlan) -> ControlLogic:
    """Input rows for a validated lane plan; at most one active plant per lane."""
    _check_lane_plan(inst, plan, set(range(inst.n)))
    return _assemble(inst, _lane_offsets(plan))
