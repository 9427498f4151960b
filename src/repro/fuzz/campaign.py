"""Campaign runner: seeded batches, a persistent corpus, fleet fan-out.

A campaign is identified by ``(campaign_seed, index range)`` — case
``index`` is always ``generate_case(campaign_seed, index)``, so any
subset of indices can be (re)executed anywhere and the results are the
same. That identity is what makes the three execution modes equivalent:

* **local** — :func:`run_indices` evaluates indices in-process;
* **resumed** — a :class:`CorpusStore` (sqlite) persists every executed
  case record keyed ``(campaign_seed, index)`` as it lands (each case
  locally, each shard reply remotely); re-running a campaign against the
  same store executes only the missing indices;
* **remote** — :func:`run_campaign` deals index shards over
  ``repro.cluster`` warm servers (capacity-weighted, through the same
  dead-server re-dispatch loop as sweeps) and the servers run the same
  :func:`run_indices`.

Failures are shrunk (:func:`repro.fuzz.shrink.shrink_case`) into
self-contained reproducers at detection time, so a nightly campaign's
artifact is immediately actionable.

The :class:`FuzzReport` deliberately carries no timestamps or host
information: two runs of the same campaign serialize byte-identically,
which CI checks on every PR.
"""

from __future__ import annotations

import json
import sqlite3
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.common.codec import WHEN_SET, Codec
from repro.errors import ConfigError
from repro.fuzz.cases import FuzzCase
from repro.fuzz.generators import generate_case
from repro.fuzz.oracles import evaluate_case
from repro.fuzz.shrink import Reproducer, shrink_case

#: Case verdicts a record can carry.
STATUSES = ("ok", "violation")


@dataclass(frozen=True)
class CaseRecord(Codec):
    """One executed campaign case: verdict, the case, and its reproducer."""

    index: int
    case_id: str
    family: str
    status: str
    oracles: tuple[str, ...] = ()
    case: FuzzCase | None = field(default=None, metadata=WHEN_SET)
    reproducer: Reproducer | None = field(default=None, metadata=WHEN_SET)

    def __post_init__(self) -> None:
        if self.status not in STATUSES:
            raise ConfigError(
                f"case record status must be one of {STATUSES}, got"
                f" {self.status!r}"
            )
        object.__setattr__(self, "oracles", tuple(self.oracles))

    @property
    def failed(self) -> bool:
        return self.status == "violation"


def run_indices(
    campaign_seed: int,
    indices,
    *,
    shrink: bool = True,
    inject: str | None = None,
    differential: bool = False,
) -> list[CaseRecord]:
    """Evaluate the given campaign indices, in the order given.

    This is the shared execution unit: the local runner, the resumed
    runner, and the cluster server's ``fuzz`` verb all funnel through it,
    which is what makes their results interchangeable.

    ``inject`` plants the named fault into every case whose scenario the
    fault applies to (``invert_priority`` needs an ``exclusive``
    dispatcher, so only those cases are affected). ``differential``
    additionally re-runs every case on the reference engine and records
    any report difference as an ``engine_divergence`` violation.
    """
    records = []
    for index in indices:
        case = generate_case(campaign_seed, index)
        if inject is not None and case.scenario.policy == "exclusive":
            case = replace(case, inject=inject)
        outcome = evaluate_case(case, deep=True, differential=differential)
        if outcome.ok:
            records.append(
                CaseRecord(
                    index=index,
                    case_id=case.case_id,
                    family=case.family,
                    status="ok",
                    case=case,
                )
            )
            continue
        reproducer = None
        if shrink:
            reproducer = shrink_case(
                case,
                outcome.failing_oracles,
                campaign_seed=campaign_seed,
                index=index,
            )
        records.append(
            CaseRecord(
                index=index,
                case_id=case.case_id,
                family=case.family,
                status="violation",
                oracles=outcome.failing_oracles,
                case=case,
                reproducer=reproducer,
            )
        )
    return records


# -- corpus persistence ----------------------------------------------------------------
_SCHEMA = """
CREATE TABLE IF NOT EXISTS fuzz_cases (
    campaign_seed   INTEGER NOT NULL,
    idx             INTEGER NOT NULL,
    case_id         TEXT NOT NULL,
    family          TEXT NOT NULL,
    status          TEXT NOT NULL,
    oracles         TEXT NOT NULL,
    case_json       TEXT NOT NULL,
    reproducer_json TEXT,
    PRIMARY KEY (campaign_seed, idx)
);
"""


class CorpusStore:
    """Sqlite persistence for executed campaign cases.

    Keys are ``(campaign_seed, index)`` — the campaign's content address —
    so resuming a campaign against the same store skips everything
    already executed, and the failure corpus accumulates across runs.
    :meth:`put` writes one landed batch per transaction, which is how
    an interrupted campaign keeps what it executed. Rows are
    deliberately timestamp-free (see the module docstring's
    determinism contract). ``path`` may be ``":memory:"``.
    """

    def __init__(self, path: "str | Path" = ":memory:") -> None:
        self.path = str(path)
        try:
            self._conn = sqlite3.connect(self.path)
            self._conn.executescript(_SCHEMA)
            self._conn.commit()
        except sqlite3.Error as error:
            raise ConfigError(
                f"cannot open fuzz corpus {self.path!r}: {error}"
            ) from None

    def put(self, campaign_seed: int, records: Iterable[CaseRecord]) -> None:
        """Store (or overwrite) one landed batch of executed case records.

        The batch is written in one transaction: durable as a whole once
        this returns, and none of it kept if the write fails.
        """
        rows = []
        for record in records:
            if record.case is None:
                raise ConfigError(
                    "corpus records need the full case (index"
                    f" {record.index})"
                )
            rows.append(
                (
                    campaign_seed,
                    record.index,
                    record.case_id,
                    record.family,
                    record.status,
                    json.dumps(list(record.oracles)),
                    record.case.to_json(),
                    (
                        record.reproducer.to_json()
                        if record.reproducer is not None
                        else None
                    ),
                )
            )
        with self._conn:
            self._conn.executemany(
                "INSERT OR REPLACE INTO fuzz_cases"
                " (campaign_seed, idx, case_id, family, status, oracles,"
                "  case_json, reproducer_json)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                rows,
            )

    def get(self, campaign_seed: int, index: int) -> CaseRecord | None:
        """The stored record of one campaign index, or ``None``."""
        row = self._conn.execute(
            "SELECT case_id, family, status, oracles, case_json,"
            " reproducer_json FROM fuzz_cases"
            " WHERE campaign_seed = ? AND idx = ?",
            (campaign_seed, index),
        ).fetchone()
        if row is None:
            return None
        case_id, family, status, oracles, case_json, reproducer_json = row
        return CaseRecord(
            index=index,
            case_id=case_id,
            family=family,
            status=status,
            oracles=tuple(json.loads(oracles)),
            case=FuzzCase.from_json(case_json),
            reproducer=(
                Reproducer.from_json(reproducer_json)
                if reproducer_json is not None
                else None
            ),
        )

    def indices(self, campaign_seed: int) -> set[int]:
        """Every executed index of one campaign."""
        rows = self._conn.execute(
            "SELECT idx FROM fuzz_cases WHERE campaign_seed = ?",
            (campaign_seed,),
        ).fetchall()
        return {index for (index,) in rows}

    def failures(self, campaign_seed: int) -> list[CaseRecord]:
        """Every stored violation of one campaign, in index order."""
        rows = self._conn.execute(
            "SELECT idx FROM fuzz_cases"
            " WHERE campaign_seed = ? AND status = 'violation'"
            " ORDER BY idx",
            (campaign_seed,),
        ).fetchall()
        return [self.get(campaign_seed, index) for (index,) in rows]

    def __len__(self) -> int:
        (count,) = self._conn.execute(
            "SELECT COUNT(*) FROM fuzz_cases"
        ).fetchone()
        return int(count)

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "CorpusStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"CorpusStore(path={self.path!r}, cases={len(self)})"


def open_corpus(path: "str | Path | None") -> CorpusStore | None:
    """``CorpusStore`` at ``path``, or ``None`` when no path is given."""
    return CorpusStore(path) if path is not None else None


# -- the campaign report ---------------------------------------------------------------
@dataclass(frozen=True)
class FuzzReport(
    Codec, kind="fuzz", derived=("failure_count", "families")
):
    """One campaign batch's outcome (deterministic: no timestamps).

    ``executed`` counts indices evaluated this run; ``loaded`` counts
    indices resumed from the corpus store. ``records`` always covers the
    full index range in order, whichever path produced each entry.
    """

    campaign_seed: int
    batch: int
    start: int = 0
    executed: int = 0
    loaded: int = 0
    records: tuple[CaseRecord, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "records", tuple(self.records))

    @property
    def failures(self) -> tuple[CaseRecord, ...]:
        return tuple(record for record in self.records if record.failed)

    @property
    def failure_count(self) -> int:
        return len(self.failures)

    @property
    def ok(self) -> bool:
        return not self.failures

    def families(self) -> dict[str, int]:
        """How many cases each family contributed."""
        counts: dict[str, int] = {}
        for record in self.records:
            counts[record.family] = counts.get(record.family, 0) + 1
        return dict(sorted(counts.items()))


def _run_remote(
    campaign_seed: int,
    pending: list[int],
    *,
    servers,
    shrink: bool,
    inject: str | None,
    differential: bool,
    timeout_s: float,
) -> Iterator[list[CaseRecord]]:
    """Deal pending indices over warm cluster servers.

    Shards are capacity-weighted and go through the sweeps' re-dispatch
    loop (:func:`repro.cluster.dispatch._submit_shards`): a shard whose
    server dies mid-campaign is re-submitted to a live one, and a shard
    no server can take raises :class:`~repro.errors.ClusterError`.
    Yields each shard's records, as one batch, as its reply lands.
    """
    # Deferred import: local campaigns must not require the cluster
    # package's socket machinery.
    from repro.cluster.dispatch import (
        _submit_shards,
        normalize_servers,
        server_capacities,
        weighted_assignments,
    )

    servers = normalize_servers(servers)
    capacities = server_capacities(servers, timeout_s=timeout_s)
    return _submit_shards(
        weighted_assignments(pending, servers, capacities),
        lambda client, shard: client.submit_fuzz(
            campaign_seed,
            shard,
            shrink=shrink,
            inject=inject,
            differential=differential,
        ),
        timeout_s,
    )


def run_campaign(
    campaign_seed: int,
    batch: int,
    *,
    start: int = 0,
    store: CorpusStore | None = None,
    resume: bool = False,
    shrink: bool = True,
    inject: str | None = None,
    differential: bool = False,
    servers=None,
    timeout_s: float = 600.0,
) -> FuzzReport:
    """Run (or resume) one campaign batch and return its report.

    With ``store`` + ``resume``, indices already in the corpus are loaded
    instead of re-executed. Everything executed this run is persisted as
    it lands, one transaction per batch: each case as it finishes
    locally, each shard as its reply arrives remotely. So an interrupted
    campaign, or one whose late shard fails, keeps what it executed, and
    a resume runs only the rest. With ``servers``, pending indices fan
    out across warm cluster servers — the records are identical to a
    local run by construction.
    ``differential`` turns on the reference-engine oracle for every case
    (see :func:`run_indices`).
    """
    if batch < 0:
        raise ConfigError(f"campaign batch must be >= 0, got {batch}")
    if start < 0:
        raise ConfigError(f"campaign start must be >= 0, got {start}")
    wanted = list(range(start, start + batch))
    loaded: dict[int, CaseRecord] = {}
    if store is not None and resume:
        for index in wanted:
            record = store.get(campaign_seed, index)
            if record is not None:
                loaded[index] = record
    pending = [index for index in wanted if index not in loaded]
    if servers is not None and pending:
        batches = _run_remote(
            campaign_seed,
            pending,
            servers=servers,
            shrink=shrink,
            inject=inject,
            differential=differential,
            timeout_s=timeout_s,
        )
    else:
        batches = (
            run_indices(
                campaign_seed,
                [index],
                shrink=shrink,
                inject=inject,
                differential=differential,
            )
            for index in pending
        )
    by_index = dict(loaded)
    for records in batches:
        if store is not None:
            store.put(campaign_seed, records)
        by_index.update((record.index, record) for record in records)
    return FuzzReport(
        campaign_seed=campaign_seed,
        batch=batch,
        start=start,
        executed=len(pending),
        loaded=len(loaded),
        records=tuple(by_index[index] for index in wanted),
    )


__all__ = [
    "STATUSES",
    "CaseRecord",
    "CorpusStore",
    "FuzzReport",
    "open_corpus",
    "run_campaign",
    "run_indices",
]
