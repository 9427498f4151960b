"""Sqlite-backed persistence for sweep results.

A :class:`ResultStore` keys each stored report on ``(request_id,
fingerprint)`` — the stable content-addressed identity minted by
:mod:`repro.sweep.grid` — so results survive process exit, a re-run
against the same store skips everything already present (resumability),
and two stores written at different commits can be diffed. Writes go
through per landed batch: :meth:`ResultStore.put` commits the reports
that arrived together (one point, or one shard) in one transaction.

Reports are stored as their canonical ``to_dict()`` JSON and rehydrated
through :func:`repro.api.results.report_from_dict`, so a loaded report is
equal to the one that was stored.
"""

from __future__ import annotations

import json
import sqlite3
from collections.abc import Iterable
from dataclasses import dataclass, field
from pathlib import Path

from repro.api.results import GemmReport, ModelReport, report_from_dict
from repro.errors import ConfigError
from repro.sweep.grid import SweepGrid, SweepPoint

_SCHEMA = """
CREATE TABLE IF NOT EXISTS results (
    request_id  TEXT NOT NULL,
    fingerprint TEXT NOT NULL,
    kind        TEXT NOT NULL,
    platform    TEXT NOT NULL,
    workload    TEXT NOT NULL,
    tag         TEXT,
    report_json TEXT NOT NULL,
    created_at  TEXT NOT NULL DEFAULT (datetime('now')),
    PRIMARY KEY (request_id, fingerprint)
);
"""


@dataclass(frozen=True)
class StoreDiff:
    """Result of comparing two stores by (request_id, fingerprint)."""

    only_left: tuple[str, ...] = ()
    only_right: tuple[str, ...] = ()
    changed: tuple[str, ...] = ()
    unchanged: tuple[str, ...] = field(default=(), repr=False)

    @property
    def identical(self) -> bool:
        return not (self.only_left or self.only_right or self.changed)


class ResultStore:
    """Persists sweep reports keyed by (request ID, config fingerprint).

    ``path`` may be a filesystem path or ``":memory:"`` (tests). The
    store is a context manager; :meth:`close` is idempotent.
    """

    def __init__(self, path: str | Path = ":memory:") -> None:
        self.path = str(path)
        try:
            self._conn = sqlite3.connect(self.path)
            self._conn.executescript(_SCHEMA)
            self._conn.commit()
        except sqlite3.Error as error:
            raise ConfigError(
                f"cannot open result store {self.path!r}: {error}"
            ) from None

    # -- writes ------------------------------------------------------------------------
    def put(
        self, landed: Iterable[tuple[SweepPoint, GemmReport | ModelReport]]
    ) -> None:
        """Store (or overwrite) the reports of one landed batch.

        ``landed`` holds the ``(point, report)`` pairs that arrived
        together: one finished point, or one shard's reports. They are
        written in one transaction, so the batch is durable as a whole
        once this returns, and a failed write keeps none of it.
        """
        rows = []
        for point, report in landed:
            request = point.request
            if request.scenario is not None:
                workload = request.scenario.name
            else:
                workload = request.model or str(request.gemm)
            rows.append(
                (
                    point.request_id,
                    point.fingerprint,
                    request.kind,
                    request.platform,
                    workload,
                    request.tag,
                    json.dumps(report.to_dict(), sort_keys=True),
                )
            )
        with self._conn:
            self._conn.executemany(
                "INSERT OR REPLACE INTO results"
                " (request_id, fingerprint, kind, platform, workload, tag,"
                "  report_json)"
                " VALUES (?, ?, ?, ?, ?, ?, ?)",
                rows,
            )

    # -- reads -------------------------------------------------------------------------
    def get(self, point: SweepPoint) -> GemmReport | ModelReport | None:
        """The stored report of ``point``, or ``None`` if absent."""
        row = self._conn.execute(
            "SELECT report_json FROM results"
            " WHERE request_id = ? AND fingerprint = ?",
            (point.request_id, point.fingerprint),
        ).fetchone()
        if row is None:
            return None
        return report_from_dict(json.loads(row[0]))

    def __contains__(self, point: SweepPoint) -> bool:
        row = self._conn.execute(
            "SELECT 1 FROM results WHERE request_id = ? AND fingerprint = ?",
            (point.request_id, point.fingerprint),
        ).fetchone()
        return row is not None

    def stored_keys(self) -> set[tuple[str, str]]:
        """Every stored ``(request_id, fingerprint)`` pair."""
        rows = self._conn.execute(
            "SELECT request_id, fingerprint FROM results"
        ).fetchall()
        return {(request_id, fingerprint) for request_id, fingerprint in rows}

    def pending(self, grid: SweepGrid) -> tuple[SweepPoint, ...]:
        """Grid points with no stored result, in grid order.

        A fully-stored grid resumes to an empty tuple — zero simulations
        left to run.
        """
        stored = self.stored_keys()
        return tuple(
            point
            for point in grid
            if (point.request_id, point.fingerprint) not in stored
        )

    def reports(
        self, grid: SweepGrid
    ) -> tuple[GemmReport | ModelReport | None, ...]:
        """Stored reports in grid order (``None`` where absent)."""
        return tuple(self.get(point) for point in grid)

    def __len__(self) -> int:
        (count,) = self._conn.execute(
            "SELECT COUNT(*) FROM results"
        ).fetchone()
        return int(count)

    # -- comparison --------------------------------------------------------------------
    def _payloads(self) -> dict[tuple[str, str], str]:
        rows = self._conn.execute(
            "SELECT request_id, fingerprint, report_json FROM results"
        ).fetchall()
        return {(rid, fp): payload for rid, fp, payload in rows}

    def diff(self, other: "ResultStore") -> StoreDiff:
        """Compare against another store (e.g. written at another commit).

        Keys present on one side only land in ``only_left``/``only_right``;
        shared keys whose report payloads differ land in ``changed``.
        """
        left, right = self._payloads(), other._payloads()
        only_left = sorted(rid for rid, _fp in set(left) - set(right))
        only_right = sorted(rid for rid, _fp in set(right) - set(left))
        changed, unchanged = [], []
        for key in sorted(set(left) & set(right)):
            (changed if left[key] != right[key] else unchanged).append(key[0])
        return StoreDiff(
            only_left=tuple(only_left),
            only_right=tuple(only_right),
            changed=tuple(changed),
            unchanged=tuple(unchanged),
        )

    def merge_from(self, other: "ResultStore") -> int:
        """Copy reports absent here from ``other``; returns rows added."""
        mine = self.stored_keys()
        added = 0
        for row in other._conn.execute(
            "SELECT request_id, fingerprint, kind, platform, workload, tag,"
            " report_json, created_at FROM results"
        ):
            if (row[0], row[1]) in mine:
                continue
            self._conn.execute(
                "INSERT INTO results"
                " (request_id, fingerprint, kind, platform, workload, tag,"
                "  report_json, created_at)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                row,
            )
            added += 1
        self._conn.commit()
        return added

    # -- lifecycle ---------------------------------------------------------------------
    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"ResultStore(path={self.path!r}, results={len(self)})"


def open_store(path: str | Path | None) -> ResultStore | None:
    """``ResultStore`` at ``path``, or ``None`` when no path is given."""
    return ResultStore(path) if path is not None else None


__all__ = ["ResultStore", "StoreDiff", "open_store"]
