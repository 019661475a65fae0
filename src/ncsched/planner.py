"""Partition search and constructive schedule assembly.

Two constructive layouts are supported. A *block plan* slices the horizon
into consecutive segments and serves one group of at most M plants per
segment, every group member getting a steering window spanning the whole
segment. A *lane plan* runs at most M parallel queues; each queue serves its
plants back-to-back with per-plant window lengths, so at any instant at most
one plant per lane is active.

Either plan yields per-plant (offset, width) placements, and one checked
synthesis (``_assemble``) turns them into input rows: each window ends in its
plant's deadbeat burst, and no slot may hold more than M bursts.

The block search is complete: chunking the plants by decreasing dimension
gives the shortest block plan, so when it does not fit none does. The lane
search is balanced decreasing packing (LPT), which can miss a packing;
``exhaustive_lane_plan`` (at most 10 plants) is complete and backs it up.
All searches are deterministic.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import accumulate

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


def _place(out: dict[int, tuple[int, int]], i: int, off: int, width: int) -> None:
    if i in out:
        raise ValueError(f"plan places plant {i + 1} twice")
    out[i] = (off, width)


@dataclass(frozen=True)
class BlockPlan:
    """Consecutive horizon segments: group j owns [offsets[j], offsets[j]+block_lengths[j])."""

    blocks: tuple[tuple[int, ...], ...]
    block_lengths: tuple[int, ...]

    @property
    def offsets(self) -> tuple[int, ...]:
        """Segment starts: the running sum of the lengths before each segment."""
        return tuple(accumulate(self.block_lengths, initial=0))[:-1]

    def placements(self) -> dict[int, tuple[int, int]]:
        """``{plant: (offset, width)}``: every member's window spans its segment."""
        out: dict[int, tuple[int, int]] = {}
        for blk, off, width in zip(self.blocks, self.offsets, self.block_lengths, strict=True):
            for i in blk:
                _place(out, i, off, width)
        return out

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

    def placements(self) -> dict[int, tuple[int, int]]:
        """``{plant: (offset, width)}``: each lane's windows run back to back from 0."""
        out: dict[int, tuple[int, int]] = {}
        for lane in self.lanes:
            off = 0
            for i in lane:
                _place(out, i, off, self.widths[i])
                off += self.widths[i]
        return out

    def to_report_dict(self) -> dict:
        return {
            "kind": "lane",
            "lanes": [[i + 1 for i in lane] for lane in self.lanes],
            "widths": [[i + 1, self.widths[i]] for i in sorted(self.widths)],
        }


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
    ordered = sorted(subset, key=lambda i: (-inst.plants[i].d, i))
    blocks = [
        tuple(sorted(ordered[k : k + inst.capacity]))
        for k in range(0, len(ordered), inst.capacity)
    ]
    lengths = [1 + max(inst.plants[i].d for i in blk) for blk in blocks]
    if sum(lengths) > inst.horizon:
        return None
    return BlockPlan(blocks=tuple(blocks), block_lengths=tuple(lengths))


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
    """The block plan of least total length; None proves that no block plan fits.

    Plants are sorted by descending dimension (ties by index) and chunked into
    ceil(N/M) groups of at most M; each group's segment length is one more
    than its largest member dimension. No grouping is shorter: take any
    grouping into k >= ceil(N/M) groups with maxima m_1 >= ... >= m_k. The
    (j-1)M+1 largest plants do not fit in the j-1 groups of largest maxima,
    so one of them lies in a group whose maximum is at most m_j; hence
    m_j >= d_((j-1)M+1), the j-th chunk's maximum. Summing 1 + m_j over j
    bounds every grouping's length below by the chunks' length.
    Deterministic for a given instance.
    """
    _require_reachable(inst, range(inst.n))
    return _block_plan_for(inst, range(inst.n))


# the greedy block search is already complete; the old name stays an alias
exhaustive_block_plan = find_block_plan


def find_lane_plan(inst: NcsInstance) -> LanePlan | None:
    """Search for a valid lane plan covering every plant; None if the packing fails."""
    _require_reachable(inst, range(inst.n))
    return _lane_plan_for(inst, range(inst.n))


def _partitions(items: list[int], weights: dict[int, int], max_parts: int, cap: int):
    """All set partitions of ``items`` into at most max_parts parts of weight at most cap.

    Canonical enumeration: each item joins an earlier part or opens a new one,
    so the first part always holds the first item. A part is never extended
    past ``cap``, so no branch that cannot fit is explored. Deterministic.
    """
    parts: list[list[int]] = []
    loads: list[int] = []

    def rec(k: int):
        if k == len(items):
            yield [tuple(p) for p in parts]
            return
        i = items[k]
        for j, p in enumerate(parts):
            if loads[j] + weights[i] <= cap:
                p.append(i)
                loads[j] += weights[i]
                yield from rec(k + 1)
                loads[j] -= weights[i]
                p.pop()
        if len(parts) < max_parts and weights[i] <= cap:
            parts.append([i])
            loads.append(weights[i])
            yield from rec(k + 1)
            loads.pop()
            parts.pop()

    yield from rec(0)


def _exhaustive_lane_for(inst: NcsInstance, subset) -> LanePlan | None:
    subset = sorted(subset)
    if len(subset) > EXHAUSTIVE_LIMIT:
        raise TooLargeError(
            f"exhaustive search limited to {EXHAUSTIVE_LIMIT} plants, got {len(subset)}"
        )
    widths = _default_widths(inst, subset)
    parts = next(_partitions(subset, widths, inst.capacity, inst.horizon), None)
    if parts is None:
        return None
    lanes = sorted((tuple(sorted(lane)) for lane in parts), key=lambda lane: lane[0])
    return LanePlan(lanes=tuple(lanes), widths=widths)


def exhaustive_lane_plan(inst: NcsInstance) -> LanePlan | None:
    """Complete lane-plan search for at most 10 plants; None proves nonexistence."""
    _require_reachable(inst, range(inst.n))
    return _exhaustive_lane_for(inst, range(inst.n))


def _assemble(inst: NcsInstance, plan: BlockPlan | LanePlan, cover) -> ControlLogic:
    """Checked input rows for a plan that places exactly the plants in ``cover``.

    A window of width w > d at offset o holds its plant's deadbeat burst in its
    last d slots, [o + w - d, o + w), and zeros elsewhere; unplaced plants get
    zero rows. The plan is rejected (``ValueError``) unless it places exactly
    ``cover``, every window is longer than its plant's dimension and no slot
    holds more than M bursts; a window outside [0, T) raises
    ``WindowOverflowError``. The windows of each dimension are built as one
    stack; warnings and errors come out in plant order, as if the plants were
    done one at a time.
    """
    placements = plan.placements()
    if placements.keys() != set(cover):
        raise ValueError("plan does not place exactly the expected plants")
    starts = [0] * (inst.horizon + 1)  # +1 at a burst's first slot, -1 past its last
    for i, (off, width) in sorted(placements.items()):
        d = inst.plants[i].d
        if width <= d:
            raise ValueError(f"window length {width} too short for plant {i + 1}")
        if off < 0 or off + width > inst.horizon:
            raise WindowOverflowError(
                f"window [{off}, {off + width}) exceeds horizon {inst.horizon}"
            )
        starts[off + width - d] += 1
        starts[off + width] -= 1
    for t, bursts in enumerate(accumulate(starts)):
        if bursts > inst.capacity:
            raise ValueError(f"slot {t} holds {bursts} bursts, capacity is {inst.capacity}")
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


def build_from_plan(inst: NcsInstance, plan: BlockPlan | LanePlan) -> ControlLogic:
    """Input rows for a lane or block plan that places every plant.

    At most M bursts share a slot, so at most M plants are active per slot;
    a malformed plan raises ``ValueError`` (see ``_assemble``).
    """
    return _assemble(inst, plan, range(inst.n))
