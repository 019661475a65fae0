"""Partition search and constructive schedule assembly.

Two constructive layouts are supported. A *block plan* slices the horizon
into consecutive segments and serves one group of at most M plants per
segment, every group member getting a steering window spanning the whole
segment. A *lane plan* runs at most M parallel queues; each queue serves its
plants back-to-back with per-plant window lengths, so at any instant at most
one plant per lane is active.

Either plan yields its windows as (plant, offset, width) arrays
(``windows``), and ``_assemble`` turns them into input rows through the one
checked window path (``deadbeat.deadbeat_rows``): each window ends in its
plant's deadbeat burst. Synthesis judges no schedule: the
plans the searches build never put more than M plants on the channel at
once, and every route's rows, a hand-built plan's included, are judged by
``verify_logic``'s rule of at most M nonzero inputs per slot.

The block search is complete: chunking the plants by decreasing dimension
gives the shortest block plan, so when it does not fit none does. The lane
search is balanced decreasing packing (LPT), run one width at a time
(``_cheapest_offers``), which can miss a packing; ``exhaustive_lane_plan``
(at most 10 plants) is complete and backs it up.
All searches are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain

import numpy as np

from .core import (
    TERMINAL_RTOL,
    ZERO_RTOL,
    ControlLogic,
    NcsInstance,
    OpenLoopStates,
    _as_int,
    check_tolerances,
    group_by_dim,
    open_loop_scan,
)
from .deadbeat import deadbeat_rows
from .errors import NotReachableError, TooLargeError

EXHAUSTIVE_LIMIT = 10


def _plant_index(name: str, value) -> int:
    """``value`` as a plant index: ``ValueError`` unless it is an integer
    (by ``_as_int``'s rule) and nonnegative."""
    index = _as_int(name, value)
    if index < 0:
        raise ValueError(f"{name} must be nonnegative, got {value!r}")
    return index


def _listed(groups) -> tuple[np.ndarray, list[int]]:
    """The plants of ``groups`` concatenated and each group's size; ``ValueError``
    for the first plant that is not a plant index (``_plant_index``)."""
    sizes = [len(group) for group in groups]
    plants = list(chain.from_iterable(groups))
    if not set(map(type, plants)) <= {int} or min(plants, default=0) < 0:
        plants = [_plant_index("a listed plant", i) for i in plants]
    return np.fromiter(plants, dtype=int, count=sum(sizes)), sizes


def _one_based(plant: np.ndarray, groups) -> list[list[int]]:
    """``plant``, the plants of ``groups`` in listing order, 1-based and split into the groups."""
    listed = (plant + 1).tolist()
    ends = list(accumulate(map(len, groups)))
    return [listed[start:end] for start, end in zip([0, *ends], ends)]


def _first_repeat(plant: np.ndarray) -> int:
    """Position of the first plant listed a second time (``len(plant)`` if none)."""
    repeat = np.ones(plant.size, dtype=bool)
    repeat[np.unique(plant, return_index=True)[1]] = False
    return int(np.argmax(repeat)) if repeat.any() else plant.size


def _check_placed_once(plant: np.ndarray, repeat: int) -> None:
    if repeat < plant.size:
        raise ValueError(f"plan places plant {plant[repeat] + 1} twice")


def _integer_windows(windows: dict, what: str) -> dict:
    """``windows`` itself when every window is a Python int, else a copy with
    each converted (so a plan holding numpy integers serializes); ``ValueError``
    for the first key, in order, whose window is not an integer."""
    if set(map(type, windows.values())) <= {int}:
        return windows
    return {key: _as_int(f"{what} {key + 1}", windows[key]) for key in sorted(windows)}


@dataclass(frozen=True)
class BlockPlan:
    """Consecutive horizon segments: group j owns [offsets[j], offsets[j]+block_lengths[j])."""

    blocks: tuple[tuple[int, ...], ...]
    block_lengths: tuple[int, ...]

    def __post_init__(self):
        lengths = dict(enumerate(self.block_lengths))
        checked = _integer_windows(lengths, "the length of block")
        if checked is not lengths:
            object.__setattr__(self, "block_lengths", tuple(checked.values()))

    @property
    def offsets(self) -> tuple[int, ...]:
        """Segment starts: the running sum of the lengths before each segment."""
        return tuple(accumulate(self.block_lengths, initial=0))[:-1]

    @cached_property
    def windows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(plant, offset, width) arrays in listing order: every member's window
        spans its segment. Raises for the first plant that is not a nonnegative
        integer or is listed twice among the blocks that have a length, then
        for a block count that differs from the length count."""
        plant, sizes = _listed(self.blocks[: len(self.block_lengths)])
        _check_placed_once(plant, _first_repeat(plant))
        if len(self.blocks) != len(self.block_lengths):
            raise ValueError(
                f"{len(self.blocks)} blocks but {len(self.block_lengths)} block lengths"
            )
        offset, width = (
            np.repeat(np.array(column, dtype=int), sizes)
            for column in (self.offsets, self.block_lengths)
        )
        return plant, offset, width

    def to_report_dict(self) -> dict:
        """1-based blocks read off ``windows`` (so a malformed plan raises), lengths, offsets."""
        return {
            "kind": "block",
            "blocks": _one_based(self.windows[0], self.blocks),
            "lengths": list(self.block_lengths),
            "offsets": list(self.offsets),
        }


@dataclass(frozen=True)
class LanePlan:
    """Parallel queues; lane members are served sequentially in listed order.

    Making a plan checks that every width is keyed by a plant index
    (``_plant_index``) and is an integer, and keeps numpy integer keys and
    widths as Python ints; the lanes are checked on first read of ``windows``."""

    lanes: tuple[tuple[int, ...], ...]
    widths: dict[int, int]

    def __post_init__(self):
        widths = self.widths
        if not set(map(type, widths)) <= {int} or min(widths, default=0) < 0:
            widths = {_plant_index("a plant given a width", key): widths[key] for key in widths}
        object.__setattr__(self, "widths", _integer_windows(widths, "the width of plant"))

    def _widths_of(self, plants) -> list[int]:
        """The window widths of ``plants``; ``ValueError`` for the first without one."""
        try:
            return list(map(self.widths.__getitem__, plants))
        except KeyError as missing:
            raise ValueError(f"plan gives plant {missing.args[0] + 1} no width") from None

    def lane_loads(self) -> tuple[int, ...]:
        return tuple(sum(self._widths_of(lane)) for lane in self.lanes)

    @cached_property
    def windows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(plant, offset, width) arrays in listing order: each lane's windows run
        back to back from 0. Raises for the first plant, in listing order, that
        is not a nonnegative integer, has no width or is listed twice, then for
        the first plant given a width that no lane lists."""
        plant, sizes = _listed(self.lanes)
        repeat = _first_repeat(plant)
        width = np.array(self._widths_of(plant[:repeat].tolist()), dtype=int)
        _check_placed_once(plant, repeat)
        if len(self.widths) > plant.size:  # the listed plants are distinct, all with widths
            extra = min(self.widths.keys() - set(plant.tolist()))
            raise ValueError(f"plan gives plant {extra + 1} a width but no lane lists it")
        # a window starts where the ones before it end, less its lane's start
        before = np.concatenate(([0], np.cumsum(width)))
        lane_start = before[list(accumulate(sizes, initial=0))[:-1]]
        return plant, before[:-1] - np.repeat(lane_start, sizes), width

    def to_report_dict(self) -> dict:
        """1-based lanes, read off the window arrays (so a malformed plan raises as
        ``windows`` does), and [plant, width] pairs in plant order."""
        return {
            "kind": "lane",
            "lanes": _one_based(self.windows[0], self.lanes),
            "widths": [[i + 1, self.widths[i]] for i in sorted(self.widths)],
        }


def split_open_loop(
    inst: NcsInstance, zero_rtol: float = ZERO_RTOL, terminal_rtol: float = TERMINAL_RTOL
) -> tuple[dict[int, int], list[int], dict[int, OpenLoopStates]]:
    """Split plants into those whose zero rows verify (with their scan steps) and
    the rest, and give each dimension group's scanned states, keyed by dimension:
    the one scan of a solve, from which ``_assemble`` builds the bursts and the
    relaxation and brute force read their targets (``terminal_systems``). The
    states do not depend on the tolerances, which ``check_tolerances`` checks."""
    check_tolerances(zero_rtol, terminal_rtol)
    taus = np.zeros(inst.n, dtype=int)
    states = {}
    for g in group_by_dim(inst):
        taus[g.idx], x = open_loop_scan(g.A, g.xi, inst.horizon, zero_rtol, terminal_rtol)
        states[g.A.shape[-1]] = OpenLoopStates(g.idx, x)
    hit = np.flatnonzero(taus)
    hits = dict(zip(hit.tolist(), taus[hit].tolist()))
    return hits, np.flatnonzero(taus == 0).tolist(), states


def _require_reachable(inst: NcsInstance, subset) -> None:
    bad = []
    for g in group_by_dim(inst, subset):
        bad.extend(g.idx[~g.reachable].tolist())
    if bad:
        raise NotReachableError(sorted(bad))


def _default_widths(inst: NcsInstance, subset) -> dict[int, int]:
    # shortest window the constructions allow: one step beyond the dimension
    plant = np.fromiter(subset, dtype=int)
    return dict(zip(plant.tolist(), (inst._dim_array()[plant] + 1).tolist()))


def _block_plan_for(inst: NcsInstance, subset) -> BlockPlan | None:
    plant = np.fromiter(subset, dtype=int)
    dims = inst._dim_array()[plant]
    order = np.lexsort((plant, -dims))
    ordered, step = plant[order].tolist(), inst.capacity
    blocks = [tuple(sorted(ordered[k : k + step])) for k in range(0, len(ordered), step)]
    # each chunk's first plant has its largest dimension
    lengths = (1 + dims[order][::step]).tolist()
    if sum(lengths) > inst.horizon:
        return None
    return BlockPlan(blocks=tuple(blocks), block_lengths=tuple(lengths))


def _cheapest_offers(loads: np.ndarray, width: int, k: int, limit: int) -> np.ndarray | None:
    """The lanes of the k smallest offers ``(loads[j] + m * width, j)``, m >= 0, in
    increasing order; None when fewer than k offers are at most ``limit``.

    Placing k windows of one width one at a time, each on the least loaded lane
    (ties to the lowest lane), takes exactly these offers: lane j's loads run
    through its offers in order, so the choices merge the lanes' sequences.
    """

    def offers_up_to(level) -> np.ndarray:
        return np.maximum(0, (level - loads) // width + 1)

    if offers_up_to(limit).sum() < k:
        return None
    low, high = int(loads.min()), limit  # the k-th smallest offer lies in [low, high]
    while low < high:
        mid = (low + high) // 2
        low, high = (low, mid) if offers_up_to(mid).sum() >= k else (mid + 1, high)
    count = offers_up_to(low)
    lane = np.repeat(np.arange(loads.size), count)
    rank = np.arange(lane.size) - np.repeat(np.cumsum(count) - count, count)
    return lane[np.lexsort((lane, loads[lane] + rank * width))[:k]]


def _lane_plan_for(inst: NcsInstance, subset) -> LanePlan | None:
    widths = _default_widths(inst, subset)
    plant = np.fromiter(widths, dtype=int, count=len(widths))
    width = np.fromiter(widths.values(), dtype=int, count=len(widths))
    # balanced decreasing packing: biggest windows first, each onto the least
    # loaded lane, ties to the lowest lane index; if that lane cannot take the
    # window, no lane can. A run of equal widths is placed at once.
    order = np.lexsort((plant, -width))
    # where each run of equal widths starts (widths are positive)
    starts = np.flatnonzero(np.diff(width[order], prepend=0)).tolist()
    lane = np.empty(plant.size, dtype=int)
    loads = np.zeros(inst.capacity, dtype=int)
    for start, end in zip(starts, [*starts[1:], plant.size]):
        run = order[start:end]
        w = int(width[run[0]])
        taken = _cheapest_offers(loads, w, run.size, inst.horizon - w)
        if taken is None:
            return None
        lane[run] = taken
        loads += w * np.bincount(taken, minlength=inst.capacity)
    # each lane's members in index order, the lanes by their first member
    members = plant[np.lexsort((plant, lane))].tolist()
    sizes = np.bincount(lane, minlength=inst.capacity)
    sizes = sizes[sizes > 0].tolist()
    lanes = [tuple(members[a:b]) for a, b in zip(accumulate(sizes, initial=0), accumulate(sizes))]
    return LanePlan(lanes=tuple(sorted(lanes)), widths=widths)


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


def _assemble(inst: NcsInstance, plan: BlockPlan | LanePlan, cover, states) -> ControlLogic:
    """Input rows for a plan that places exactly the plants in ``cover``, all reachable.

    A window of width w > d at offset o holds its plant's deadbeat burst in its
    last d slots, [o + w - d, o + w), and zeros elsewhere; unplaced plants get
    zero rows. ``states`` are the instance's open-loop scans (``split_open_loop``),
    which the bursts cancel at their windows' ends. A plan that does not place
    exactly ``cover`` is a ``ValueError`` naming the lowest plant it places
    outside ``cover``, else the lowest it leaves out; the windows are checked,
    warned about and built by ``deadbeat_rows``. How many plants share a slot
    is not judged here.
    """
    plant, offset, width = plan.windows
    placed, wanted = np.sort(plant), np.unique(np.fromiter(cover, dtype=int))
    if not np.array_equal(placed, wanted):
        extra = np.setdiff1d(placed, wanted)
        if extra.size:
            raise ValueError(f"plan places plant {extra[0] + 1}, which is not one to place")
        raise ValueError(f"plan leaves plant {np.setdiff1d(wanted, placed)[0] + 1} unplaced")
    window = np.zeros((2, inst.n), dtype=int)
    window[:, plant] = offset, width
    rows = deadbeat_rows(group_by_dim(inst, plant), states, *window, inst.horizon)
    # every burst that did not raise is finite
    return ControlLogic._own(rows)


def build_from_plan(inst: NcsInstance, plan: BlockPlan | LanePlan) -> ControlLogic:
    """Input rows for a lane or block plan that places every plant.

    An unreachable plant raises ``NotReachableError`` naming every such
    plant; a malformed plan (a plant placed twice, given no width or left
    out, a window not longer than its plant's dimension) raises
    ``ValueError``, and a window outside [0, T) ``WindowOverflowError``. The
    rows are not judged: ``verify_logic`` decides whether they steer every
    plant to zero with at most M nonzero inputs per slot. The bursts come
    from the instance's own open-loop scan, as in a solve.
    """
    _require_reachable(inst, range(inst.n))
    return _assemble(inst, plan, range(inst.n), split_open_loop(inst)[2])
