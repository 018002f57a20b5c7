"""Execution options shared by every backend of the :mod:`repro.api` facade.

One small immutable dataclass instead of per-backend keyword soup: the
*caller* states what answer it wants (``mode``) and how much parallelism it
tolerates (``workers``); each backend maps that onto its own
fast paths. Callers never choose "count-only scan" vs "early-exit scan" vs
"SQL anti-join" directly — that dispatch is the backend's job, in the
spirit of BRAVO's single reader API over internally-selected fast/slow
paths. The same applies *within* the parallel path: callers say
``workers=N`` and each backend runs its one parallel implementation (the
session's fork pool on ``memory``, its read-only rowid-window connection
pool on ``sqlfile``); the task-graph scheduler decides group- vs
shard-level dispatch, and only an explicit ``shards`` pins the split.
"""

from __future__ import annotations

from dataclasses import dataclass

#: What a :meth:`Session.run` call should compute.
MODES = ("full", "count", "early-exit")

#: How the ``sqlfile`` backend fingerprints tables for cache invalidation.
FINGERPRINTS = ("rowid", "content")

#: Whether the ``sqlfile`` backend may use sqlite window functions for its
#: one-pass CFD detection queries (``auto`` probes the library at connect
#: time and silently falls back to the legacy GROUP-BY-then-join SQL when
#: the sqlite build predates window functions, i.e. < 3.25).
WINDOW_FUNCTIONS = ("auto", "off", "require")


@dataclass(frozen=True)
class ExecutionOptions:
    """How a :class:`~repro.api.session.Session` executes detection.

    Attributes
    ----------
    mode:
        ``"full"`` — materialize every violation (a ``ViolationReport``);
        ``"count"`` — per-constraint totals only (a ``DetectionSummary``);
        ``"early-exit"`` — just the ``D |= Σ`` verdict (a ``bool``).
        Only :meth:`Session.run` consults it; the explicit ``check`` /
        ``count`` / ``is_clean`` methods ignore it.
    workers:
        Number of parallel workers for the scan task graph. ``1``
        (default) runs serially; ``N > 1`` splits the plan's scan units —
        CFD ``(relation, X)`` group-bys, CIND witness passes, CIND LHS
        scans — *and, past*
        :data:`~repro.engine.shards.MIN_SHARD_ROWS` *rows, the row ranges
        within each unit* across the session's pool and merges the
        partial states. The memory backend (and everything routed
        through it) runs them on one session-persistent fork pool whose
        workers survive across calls (drifted relations reach them via
        shared memory; see :mod:`repro.api.workerpool`); on a platform
        without ``fork`` it runs the serial engine instead. The
        ``sqlfile`` backend parallelizes *inside sqlite*: each scan unit
        splits into contiguous rowid windows run concurrently on the
        session's pool of read-only connections (sqlite releases the GIL
        inside queries) and the partial states merge bit-identically;
        so does ``sql``, which is ``sqlfile`` over a private image.
        Other backends ignore the setting;
        ``Session.effective_executor`` names what actually runs.
    shards:
        Explicit shard count per scan unit (``0`` = size automatically
        from ``workers`` and ``MIN_SHARD_ROWS``). Mostly for benchmarks
        and tests that must force a specific split (still capped at one
        shard per row). For ``sqlfile`` this is the rowid-window count
        per relation scan.
    window_functions:
        Whether the ``sqlfile`` (and ``sql``) backend's CFD detection may
        use sqlite window functions (``MIN(rhs) OVER (PARTITION BY X)``
        one-pass queries): ``"auto"`` (default) probes the sqlite library at
        connect time and falls back to the legacy GROUP-BY-then-join SQL
        when unavailable (< 3.25); ``"off"`` forces the legacy SQL
        (benchmark baselines, differential tests); ``"require"`` raises
        :class:`~repro.errors.SQLBackendError` instead of falling back.
        Results are bit-identical either way. Other backends ignore it.
    fingerprint:
        How the ``sqlfile`` (and ``sql``) backend fingerprints tables when
        validating its cache after a foreign commit: ``"rowid"``
        (default) compares cheap ``(max rowid, COUNT(*))`` pairs — O(1)
        per table but blind to a writer that deletes and re-inserts
        behind the same rowid envelope; ``"content"`` sums CRC32 hashes
        of each row's rowid and values inside SQL — one aggregate scan
        per table per foreign commit, closes the delete+reinsert hole
        (including a re-insert of the same tuple, which moves it in scan
        order). In-memory backends ignore it (their mutation counters
        are exact).
    readonly:
        Only meaningful for the sqlite backends (``sqlfile``, and ``sql``
        on its private image): open the database file read-only, so
        ``insert``/``delete`` fail loudly and the session can never write
        to a file it is only meant to audit. In-memory backends ignore it.
    validate:
        Run the fast static-analysis tiers over Σ at connect time
        (consistency kernel, duplicates, chain diagnostics — no
        implication) and issue a
        :class:`~repro.analyze.report.SigmaWarning` when Σ has errors,
        i.e. its CFDs admit no satisfying instance with matching tuples.
        The session still connects — warnings never block — and the full
        report stays available via :meth:`Session.analyze`.
    prune_implied:
        Let the planner skip scan work for constraints the static
        analysis proves *violation-equivalent* to an earlier one
        (structural duplicates: same relations, attribute lists, and
        pattern tableau). Reports and summaries are reconstructed from
        the kept twin and are bit-identical — including ordering — to an
        unpruned run's; merely *implied* constraints are never pruned
        (their violation lists are their own). No-op on the plan-free
        ``naive`` backend.
    """

    mode: str = "full"
    workers: int = 1
    shards: int = 0
    window_functions: str = "auto"
    fingerprint: str = "rowid"
    readonly: bool = False
    validate: bool = False
    prune_implied: bool = False

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(
                f"mode must be one of {MODES}, got {self.mode!r}"
            )
        if not isinstance(self.workers, int) or self.workers < 1:
            raise ValueError(f"workers must be a positive int, got {self.workers!r}")
        if not isinstance(self.shards, int) or self.shards < 0:
            raise ValueError(
                f"shards must be a non-negative int (0 = auto), got "
                f"{self.shards!r}"
            )
        if self.window_functions not in WINDOW_FUNCTIONS:
            raise ValueError(
                f"window_functions must be one of {WINDOW_FUNCTIONS}, got "
                f"{self.window_functions!r}"
            )
        if self.fingerprint not in FINGERPRINTS:
            raise ValueError(
                f"fingerprint must be one of {FINGERPRINTS}, got "
                f"{self.fingerprint!r}"
            )
        if not isinstance(self.readonly, bool):
            raise ValueError(
                f"readonly must be a bool, got {self.readonly!r}"
            )
        if not isinstance(self.validate, bool):
            raise ValueError(
                f"validate must be a bool, got {self.validate!r}"
            )
        if not isinstance(self.prune_implied, bool):
            raise ValueError(
                f"prune_implied must be a bool, got {self.prune_implied!r}"
            )

    @property
    def parallel(self) -> bool:
        return self.workers > 1
