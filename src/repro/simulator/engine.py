"""A minimal discrete-event engine: serial channels and timed tasks.

The training-iteration simulator models each device as two serial channels —
a compute stream and a communication stream (the NCCL channel) — that
process tasks in submission order, each task occupying its channel for a
duration.  Cross-channel dependencies are expressed by submitting a task
with a *ready time*: the channel starts it at ``max(channel_free, ready)``.

This is deliberately small: no processes or interrupts, just the amount of
machinery needed to capture serialisation and overlap, which is what the
paper's backward-phase analysis (§4.6) is about.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional, Sequence

__all__ = ["Task", "Channel", "Engine"]


class Task(NamedTuple):
    """One completed task occurrence on a channel.

    A NamedTuple rather than a dataclass: materializing a columnar task
    log creates tens of thousands of these per call and tuple
    construction is several times cheaper than dataclass ``__init__``.
    """

    name: str
    start: float
    duration: float

    @property
    def end(self) -> float:
        return self.start + self.duration


@dataclass
class Channel:
    """A serial resource: tasks run one at a time, FIFO."""

    name: str
    free_at: float = 0.0
    log: List[Task] = field(default_factory=list)

    def submit(self, name: str, duration: float, ready: float = 0.0) -> Task:
        """Run a task as soon as both the channel and the input are ready."""
        if duration < 0:
            raise ValueError(f"negative duration for task {name!r}")
        start = max(self.free_at, ready)
        task = Task(name=name, start=start, duration=duration)
        self.free_at = task.end
        self.log.append(task)
        return task

    def splice(self, tasks: Sequence[Task], free_at: Optional[float] = None) -> None:
        """Install a batch of pre-timed tasks (the columnar tier's logs).

        The tasks carry their own start times — they were timed by an
        external executor that mirrors :meth:`submit`'s arithmetic — so the
        channel just adopts the log and advances its clock to the last end
        (or to an explicit ``free_at`` when the caller tracked it, which
        avoids re-deriving the float from the log).
        """
        if tasks:
            self.log.extend(tasks)
            last_end = tasks[-1].end
            if last_end > self.free_at:
                self.free_at = last_end
        if free_at is not None and free_at > self.free_at:
            self.free_at = free_at

    @property
    def busy_time(self) -> float:
        return sum(t.duration for t in self.log)

    @property
    def makespan(self) -> float:
        return self.free_at

    def idle_time(self) -> float:
        """Gaps between consecutive tasks (pipeline bubbles).

        Measured from the channel's *first* task, not from t=0 — a channel
        that only becomes active late (e.g. a backward-only stream) is not
        "idle" before it has anything to do.
        """
        idle = 0.0
        prev_end: Optional[float] = None
        for t in self.log:
            if prev_end is not None and t.start > prev_end:
                idle += t.start - prev_end
            prev_end = t.end
        return idle


class Engine:
    """A named collection of channels sharing one clock."""

    def __init__(self) -> None:
        self._channels: dict[str, Channel] = {}

    def channel(self, name: str) -> Channel:
        if name not in self._channels:
            self._channels[name] = Channel(name=name)
        return self._channels[name]

    @property
    def channels(self) -> List[Channel]:
        return list(self._channels.values())

    @property
    def makespan(self) -> float:
        return max((c.makespan for c in self._channels.values()), default=0.0)
