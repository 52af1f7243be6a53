"""Cycle timing: per-round idle schedules of a patch."""

from .schedule import PatchTimeline, RoundIdle

__all__ = ["PatchTimeline", "RoundIdle"]
