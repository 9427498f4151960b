"""Per-warp register scoreboard for dependence tracking.

Registers are abstract ids scoped to a warp. The scoreboard records when
each pending destination becomes readable; an instruction may issue once all
of its sources are ready. WAW hazards simply overwrite the ready time (the
pipelines complete in order per warp for a given unit, which is all the
trace generators rely on).
"""

from __future__ import annotations

from typing import Iterable


class Scoreboard:
    """Tracks outstanding register writes for every warp."""

    def __init__(self, num_warps: int) -> None:
        self._pending: list[dict[int, float]] = [dict() for _ in range(num_warps)]

    def ready(self, warp_id: int, sources: Iterable[int], now: float) -> bool:
        """True when every source register is readable at ``now``."""
        return self.earliest_ready(warp_id, sources) <= now

    def set_pending(
        self, warp_id: int, destinations: Iterable[int], ready_at: float
    ) -> None:
        """Mark destination registers as pending until ``ready_at``."""
        pending = self._pending[warp_id]
        for register in destinations:
            current = pending.get(register, 0.0)
            pending[register] = max(current, ready_at)

    def earliest_ready(self, warp_id: int, sources: Iterable[int]) -> float:
        """The cycle at which all ``sources`` become readable (0 if now)."""
        pending = self._pending[warp_id]
        latest = 0.0
        for register in sources:
            ready_at = pending.get(register)
            if ready_at is not None:
                latest = max(latest, ready_at)
        return latest

    def prune(self, warp_id: int, now: float) -> None:
        """Drop entries already ready (keeps the dicts small)."""
        pending = self._pending[warp_id]
        stale = [reg for reg, ready_at in pending.items() if ready_at <= now]
        for reg in stale:
            del pending[reg]

    def outstanding(self, warp_id: int) -> int:
        return len(self._pending[warp_id])
