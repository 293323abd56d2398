"""A single CPU's occupied time intervals.

Supports the two ``EST`` conventions found across the reproduced
heuristics:

* **append** -- Definition 3's ``Avail(m_p)``: a task may start no earlier
  than the finish time of the last task already on the CPU (this is what
  the HDLTS trace in Table I uses);
* **insertion** -- HEFT/PETS/PEFT-style search of the earliest idle slot
  between already-scheduled tasks that is long enough for the task.
"""

from __future__ import annotations

import bisect
from typing import Iterator, List, NamedTuple, Optional, Tuple

__all__ = ["Slot", "ProcessorTimeline"]

_EPS = 1e-9


class _SlotFields(NamedTuple):
    start: float
    end: float
    task: int
    duplicate: bool = False


class Slot(_SlotFields):
    """An occupied interval ``[start, end)`` on a CPU.

    A named tuple rather than a dataclass: ``reserve`` builds one per
    placement, and tuple construction is about half the cost.
    """

    __slots__ = ()

    def __new__(
        cls, start: float, end: float, task: int, duplicate: bool = False
    ) -> "Slot":
        if end < start - _EPS:
            raise ValueError(
                f"slot ends before it starts: "
                f"Slot(start={start}, end={end}, task={task}, "
                f"duplicate={duplicate})"
            )
        return _SlotFields.__new__(cls, start, end, task, duplicate)


class ProcessorTimeline:
    """Occupied intervals of one CPU, kept sorted by start time."""

    def __init__(self, proc: int) -> None:
        self.proc = proc
        # slots sorted by (start, end): zero-duration boundary slots sort
        # before the real slot sharing their start, which keeps _ends
        # non-decreasing and index-aligned with _slots
        self._slots: List[Slot] = []
        self._keys: List[Tuple[float, float]] = []  # (start, end) for bisect
        self._starts: List[float] = []  # aligned with _slots
        self._ends: List[float] = []  # aligned with _slots, non-decreasing
        self._max_end = 0.0
        self._busy = 0.0  # running occupied time, updated on reserve/remove
        # whether _ends is non-decreasing (a boundary point slot within
        # eps of a real end can break it); maintained on reserve/remove
        self._ends_monotone = True

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._slots)

    def __iter__(self) -> Iterator[Slot]:
        return iter(self._slots)

    def slots(self) -> Tuple[Slot, ...]:
        """Snapshot of the occupied intervals, sorted by (start, end)."""
        return tuple(self._slots)

    @property
    def avail(self) -> float:
        """Definition 3: the finish time of the last task on this CPU.

        Tracked as the maximum slot end (zero-duration pseudo-task slots
        may sort after the interval that actually finishes last).
        """
        return self._max_end if self._slots else 0.0

    @property
    def first_busy(self) -> float:
        """Start of the earliest occupied interval (inf when idle)."""
        return self._slots[0].start if self._slots else float("inf")

    def busy_time(self) -> float:
        """Total occupied time (for utilization / load-balance metrics).

        Maintained incrementally on :meth:`reserve`/:meth:`remove`, so
        sweep loops can poll it per step without re-summing every slot.
        """
        return self._busy

    # ------------------------------------------------------------------
    def fits(self, start: float, end: float) -> bool:
        """True when ``[start, end)`` overlaps no existing slot.

        Empty intervals (zero-duration pseudo tasks) occupy nothing and
        fit anywhere at or after time zero.
        """
        if start < -_EPS:
            return False
        if end - start <= _EPS:
            # a point slot may sit at slot boundaries but not inside an
            # occupied interval (queue replay would reorder it).  The
            # start side uses zero tolerance: a point even fractionally
            # after an interval's start would break the sorted-ends
            # invariant the gap search relies on.
            return not any(
                s.start < start < s.end - _EPS for s in self._slots
            )
        # a real interval must not cover any slot start either: a
        # covered pseudo task would replay out of order on a queue (and
        # the sorted-ends invariant would break).  Zero tolerance on the
        # start side, mirroring the point-slot rule above.
        lo = bisect.bisect_right(self._starts, start)
        hi = bisect.bisect_left(self._starts, end - _EPS)
        if lo < hi:
            return False  # some slot starts inside (start, end - eps)
        # real slots are pairwise disjoint and sorted, so the only one
        # that can intersect [start, end) is the last real slot whose
        # start precedes end (zero-duration slots occupy nothing).
        j = hi
        while j > 0:
            candidate = self._slots[j - 1]
            j -= 1
            if candidate.end - candidate.start <= _EPS:
                continue
            return candidate.end <= start + _EPS
        return True

    def earliest_start(
        self, ready: float, duration: float, insertion: bool = False
    ) -> float:
        """Earliest time a ``duration``-long task ready at ``ready`` can start.

        With ``insertion=False`` this is ``max(ready, Avail)`` (Eq. 6);
        with ``insertion=True`` idle gaps between scheduled tasks are
        searched first, HEFT-style.
        """
        if ready < 0:
            raise ValueError(f"ready time must be >= 0, got {ready}")
        if duration < 0:
            raise ValueError(f"duration must be >= 0, got {duration}")
        if not insertion or not self._slots:
            return max(ready, self.avail)
        # gap before the first slot, then between slots; each candidate
        # is re-checked with fits() so float-boundary cases can never
        # produce an unreservable answer
        # slots finishing at or before ``ready`` cannot host the task and
        # only pin the scan's running prev_end at <= ready, so skip them
        # wholesale (ends are non-decreasing because slots are disjoint)
        first = bisect.bisect_right(self._ends, ready)
        prev_end = self._ends[first - 1] if first > 0 else 0.0
        for idx in range(first, len(self._slots)):
            slot = self._slots[idx]
            gap_start = max(ready, prev_end)
            if gap_start + duration <= slot.start + _EPS and self.fits(
                gap_start, gap_start + duration
            ):
                return gap_start
            prev_end = max(prev_end, slot.end)
        fallback = max(ready, prev_end)
        if self.fits(fallback, fallback + duration):
            return fallback
        # eps-scale corner (prev_end understated by a boundary slot):
        # appending after everything always fits
        return max(ready, self.avail)

    def earliest_start_fast(
        self, ready: float, duration: float, insertion: bool = False
    ) -> float:
        """:meth:`earliest_start` minus the per-candidate ``fits`` re-check.

        For a query ready at ``r`` the slots finishing at or before
        ``r`` are skipped by bisecting the (non-decreasing) end times,
        and the first gap ``[ends[i-1], starts[i])`` wide enough for the
        task wins.  While the end times are sorted and the duration is
        above eps, the scalar path's ``fits()`` re-check is provably
        always true there, so the answer is bit-identical; every other
        shape is delegated to the scalar method.  The fast engines call
        this thousands of times per schedule.
        """
        if not insertion or not self._slots:
            if ready < 0:
                raise ValueError(f"ready time must be >= 0, got {ready}")
            if duration < 0:
                raise ValueError(f"duration must be >= 0, got {duration}")
            avail = self._max_end
            return ready if ready > avail else avail
        if not self._ends_monotone or duration <= _EPS:
            return self.earliest_start(ready, duration, insertion=True)
        if ready < 0:
            raise ValueError(f"ready time must be >= 0, got {ready}")
        if duration < 0:
            raise ValueError(f"duration must be >= 0, got {duration}")
        ends = self._ends
        starts = self._starts
        first = bisect.bisect_right(ends, ready)
        prev_end = ends[first - 1] if first > 0 else 0.0
        for idx in range(first, len(starts)):
            gap_start = ready if ready > prev_end else prev_end
            if gap_start + duration <= starts[idx] + _EPS:
                return gap_start
            prev_end = ends[idx]  # monotone: the running max is ends[idx]
        return ready if ready > self._max_end else self._max_end

    def reserve(
        self, task: int, start: float, duration: float, duplicate: bool = False
    ) -> Slot:
        """Occupy ``[start, start + duration)``; raises on overlap."""
        end = start + duration
        if duration > _EPS and start >= self._max_end:
            # append-at-end: the interval begins at or after every
            # existing slot's finish, so it cannot overlap anything,
            # (start, end) sorts last, and _ends stays non-decreasing
            slot = Slot(start, end, task, duplicate)
            self._slots.append(slot)
            self._keys.append((start, end))
            self._starts.append(start)
            self._ends.append(end)
            self._max_end = end
            self._busy += duration
            return slot
        if not self.fits(start, end):
            raise ValueError(
                f"slot [{start}, {end}) for task {task} overlaps on CPU {self.proc}"
            )
        slot = Slot(start, end, task, duplicate)
        i = bisect.bisect_right(self._keys, (start, end))
        self._slots.insert(i, slot)
        self._keys.insert(i, (start, end))
        self._starts.insert(i, start)
        self._ends.insert(i, end)
        if self._ends_monotone:
            ends = self._ends
            if (i > 0 and ends[i - 1] > end) or (
                i + 1 < len(ends) and end > ends[i + 1]
            ):
                self._ends_monotone = False
        self._max_end = max(self._max_end, end)
        self._busy += duration
        return slot

    def remove(self, task: int, duplicate: Optional[bool] = None) -> None:
        """Remove the slot(s) of ``task`` (used by rescheduling)."""
        kept = [
            s
            for s in self._slots
            if not (s.task == task and (duplicate is None or s.duplicate == duplicate))
        ]
        if len(kept) == len(self._slots):
            raise KeyError(f"task {task} not on CPU {self.proc}")
        kept.sort(key=lambda s: (s.start, s.end))
        self._slots = kept
        self._keys = [(s.start, s.end) for s in kept]
        self._starts = [s.start for s in kept]
        self._ends = [s.end for s in kept]
        self._max_end = max((s.end for s in kept), default=0.0)
        # re-sum rather than subtract: removal is rare and re-summing
        # keeps the accumulator free of float drift
        self._busy = sum(s.end - s.start for s in kept)
        self._ends_monotone = all(
            a <= b for a, b in zip(self._ends, self._ends[1:])
        )

    def idle_gaps(self, horizon: Optional[float] = None) -> List[Tuple[float, float]]:
        """Idle intervals up to ``horizon`` (defaults to ``avail``)."""
        end = self.avail if horizon is None else horizon
        gaps: List[Tuple[float, float]] = []
        cursor = 0.0
        for slot in self._slots:
            if slot.start > cursor + _EPS:
                gaps.append((cursor, min(slot.start, end)))
            cursor = max(cursor, slot.end)
        if cursor + _EPS < end:
            gaps.append((cursor, end))
        return [(a, b) for a, b in gaps if b > a + _EPS]

    def __repr__(self) -> str:  # pragma: no cover
        return f"ProcessorTimeline(proc={self.proc}, slots={len(self._slots)})"
