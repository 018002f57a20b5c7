"""Relation and database instances (possibly containing chase variables).

Instances follow the paper's set semantics: a relation instance is a *set*
of tuples. We keep insertion order for deterministic iteration, and we
maintain per-attribute-list hash indexes so that CIND satisfaction checks
(``exists t2 with t2[Y] = t1[X]``) run in expected constant time per probe
instead of scanning the relation.

A *database template* (Section 5.1) is just a database instance whose tuples
may contain :class:`~repro.relational.values.Variable` objects; the chase
engine manipulates templates through the same API plus
:meth:`RelationInstance.replace_value`.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from itertools import compress
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from repro.errors import DomainError, SchemaError
from repro.relational.schema import DatabaseSchema, RelationSchema
from repro.relational.values import is_constant, is_variable


class Tuple:
    """An immutable row over a relation schema.

    Values may be constants or chase variables. Equality and hashing are by
    (relation name, values), so tuples behave as the paper's set elements.
    """

    __slots__ = ("schema", "_values", "_hash")

    def __init__(self, schema: RelationSchema, values: Mapping[str, Any] | Sequence[Any]):
        self.schema = schema
        names = schema.attribute_names
        if isinstance(values, Mapping):
            missing = [n for n in names if n not in values]
            if missing:
                raise SchemaError(
                    f"tuple for {schema.name!r} is missing attributes {missing}"
                )
            extra = [n for n in values if n not in schema]
            if extra:
                raise SchemaError(
                    f"tuple for {schema.name!r} has unknown attributes {extra}"
                )
            vals = tuple(values[n] for n in names)
        else:
            vals = tuple(values)
            if len(vals) != len(names):
                raise SchemaError(
                    f"tuple for {schema.name!r} needs {len(names)} values, "
                    f"got {len(vals)}"
                )
        self._values = vals
        self._hash = hash((schema.name, vals))

    def __getitem__(self, attribute: str) -> Any:
        try:
            return self._values[self.schema.positions[attribute]]
        except KeyError:
            raise SchemaError(
                f"relation {self.schema.name!r} has no attribute {attribute!r}"
            ) from None

    def project(self, attributes: Iterable[str]) -> tuple[Any, ...]:
        """``t[A1, ..., Ak]`` as a value tuple, in the order given."""
        positions = self.schema.positions
        values = self._values
        try:
            return tuple(values[positions[a]] for a in attributes)
        except KeyError as exc:
            raise SchemaError(
                f"relation {self.schema.name!r} has no attribute {exc.args[0]!r}"
            ) from None

    def as_dict(self) -> dict[str, Any]:
        return dict(zip(self.schema.attribute_names, self._values))

    @property
    def values(self) -> tuple[Any, ...]:
        return self._values

    def has_variables(self) -> bool:
        return any(is_variable(v) for v in self._values)

    def variables(self) -> set[Any]:
        return {v for v in self._values if is_variable(v)}

    def is_ground(self) -> bool:
        """True if every value is a constant (no chase variables)."""
        return all(is_constant(v) for v in self._values)

    def substitute(self, mapping: Mapping[Any, Any]) -> "Tuple":
        """Return a copy with every value replaced via *mapping* (if present)."""
        return Tuple(self.schema, tuple(mapping.get(v, v) for v in self._values))

    def replace(self, **updates: Any) -> "Tuple":
        """Return a copy with named attributes replaced."""
        d = self.as_dict()
        for k, v in updates.items():
            if k not in self.schema:
                raise SchemaError(
                    f"relation {self.schema.name!r} has no attribute {k!r}"
                )
            d[k] = v
        return Tuple(self.schema, d)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Tuple)
            and self.schema.name == other.schema.name
            and self._values == other._values
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}={v!r}" for n, v in zip(self.schema.attribute_names, self._values))
        return f"{self.schema.name}({inner})"


#: How many of its latest ``add``/``discard`` calls a relation remembers
#: (:meth:`RelationInstance.changes_since`). Consumers that fell further
#: behind — and every consumer after a ``replace_value`` — rebuild from the
#: full relation instead of patching from the log.
MUTATION_LOG_SIZE = 256

#: One logged mutation: ``(tuple, insertion sequence, inserted?)``. A
#: delete logs the sequence number the tuple had while it was stored.
Change = tuple[Tuple, int, bool]


def _projector(positions: tuple[int, ...]) -> Callable[[tuple], tuple]:
    """``values -> tuple(values[p] for p in positions)``, C-speed for two or
    more positions."""
    if len(positions) == 1:
        (p,) = positions
        return lambda values: (values[p],)
    return itemgetter(*positions)


def _positions_of(column: Sequence[Any], value: Any) -> Iterator[int]:
    """Every index of *value* in *column*, via C-speed ``index`` hops."""
    find = column.index
    i = -1
    while True:
        try:
            i = find(value, i + 1)
        except ValueError:
            return
        yield i


class RelationInstance:
    """A set of tuples over one relation schema, with projection indexes.

    ``index_on(attrs)`` builds (and caches) a hash index from projections on
    *attrs* to the matching tuples; CIND checking uses it for its existential
    probes. Indexes are maintained incrementally on insert/discard and
    invalidated on value replacement (which rewrites tuples wholesale).

    Every mutation bumps the monotonic :attr:`version` counter, which keys
    the columnar view (:meth:`columns` / :meth:`rows`) and the detection
    engine's :class:`~repro.engine.cache.ScanCache`: a scan result tagged
    with the version it was computed at stays valid exactly as long as the
    version is unchanged.

    Every stored tuple carries its *insertion sequence* (:meth:`seq_of`,
    strictly increasing in insertion order, so it orders tuples exactly
    as scans see them), and the last :data:`MUTATION_LOG_SIZE` mutations
    stay in a log (:meth:`changes_since`). Together they let the columnar
    view and the scan cache follow a small write by patching — slicing
    the deleted rows out, appending the inserted ones — instead of
    re-reading the whole relation.
    """

    def __init__(self, schema: RelationSchema, tuples: Iterable[Tuple | Sequence[Any] | Mapping[str, Any]] = ()):
        self.schema = schema
        #: tuple -> insertion sequence (dict order is insertion order).
        self._tuples: dict[Tuple, int] = {}
        self._next_seq = 0
        #: projection attrs -> key -> insertion-ordered tuple set. Buckets
        #: are dicts so removal is O(1) by hash instead of an O(bucket)
        #: equality sweep; iteration order stays insertion order.
        self._indexes: dict[tuple[str, ...], dict[tuple[Any, ...], dict[Tuple, None]]] = {}
        #: Monotonic mutation counter (never decreases, bumps on every
        #: successful add/discard/replace_value).
        self.version: int = 0
        #: The latest mutations, one entry per version bump; it covers
        #: versions ``(version - len(_log), version]``.
        self._log: deque[Change] = deque(maxlen=MUTATION_LOG_SIZE)
        self._columns: tuple[tuple[Any, ...], ...] | None = None
        self._rows: list[Tuple] | None = None
        self._view_version: int = -1
        for t in tuples:
            self.add(t)

    def coerce(self, row: Tuple | Sequence[Any] | Mapping[str, Any]) -> Tuple:
        """*row* as a :class:`Tuple` of this relation — what :meth:`add`
        would store; a ``Tuple`` of another relation is a ``SchemaError``."""
        if isinstance(row, Tuple):
            if row.schema.name != self.schema.name:
                raise SchemaError(
                    f"tuple of {row.schema.name!r} inserted into {self.schema.name!r}"
                )
            return row
        return Tuple(self.schema, row)

    def add(self, row: Tuple | Sequence[Any] | Mapping[str, Any]) -> Tuple | None:
        """Insert a tuple (set semantics).

        Returns the canonical stored :class:`Tuple` when the row was new —
        callers that passed a Mapping/Sequence get the coerced object back
        without guessing where it landed — and ``None`` for a duplicate.
        (``Tuple`` is always truthy, so boolean uses keep working.)
        """
        t = self.coerce(row)
        if t in self._tuples:
            return None
        seq = self._next_seq
        self._next_seq = seq + 1
        self._tuples[t] = seq
        self.version += 1
        self._log.append((t, seq, True))
        if self._rows is not None:
            self._outran_views()
        for attrs, index in self._indexes.items():
            index.setdefault(t.project(attrs), {})[t] = None
        return t

    def discard(self, row: Tuple) -> bool:
        """Remove a tuple if present; return ``True`` if it was removed."""
        seq = self._tuples.pop(row, None)
        if seq is None:
            return False
        self.version += 1
        self._log.append((row, seq, False))
        if self._rows is not None:
            self._outran_views()
        for attrs, index in self._indexes.items():
            bucket = index.get(row.project(attrs))
            if bucket is not None:
                bucket.pop(row, None)
        return True

    def _outran_views(self) -> None:
        """Drop a view the log can no longer carry forward."""
        if self.version - self._view_version > MUTATION_LOG_SIZE:
            self._drop_views()

    def __len__(self) -> int:
        return len(self._tuples)

    def __iter__(self) -> Iterator[Tuple]:
        return iter(self._tuples)

    def __contains__(self, row: Tuple) -> bool:
        return row in self._tuples

    @property
    def tuples(self) -> tuple[Tuple, ...]:
        return tuple(self._tuples)

    def seq_of(self, row: Tuple) -> int:
        """The insertion sequence of a stored tuple (``KeyError`` if absent).

        Sequences grow in insertion order, so sorting by them is sorting
        into scan order; a re-inserted tuple gets a new, larger one.
        """
        return self._tuples[row]

    def changes_since(self, version: int) -> list[Change] | None:
        """The mutations that moved :attr:`version` past *version*, oldest
        first — ``None`` when the log no longer reaches back that far.

        Entries record what happened, not the net effect: a tuple deleted
        and re-inserted in the gap appears twice.
        """
        gap = self.version - version
        if gap < 0 or gap > len(self._log):
            return None
        if gap == 0:
            return []
        log = self._log
        return [log[i] for i in range(len(log) - gap, len(log))]

    def _refresh_views(self) -> None:
        changes = (
            self.changes_since(self._view_version)
            if self._rows is not None
            else None
        )
        if changes is not None:
            self._advance_views(changes)
        else:
            self._drop_views()  # before the transpose: one view at a time
            rows = list(self._tuples)
            if rows:
                columns = tuple(zip(*[t.values for t in rows]))
            else:
                columns = tuple(() for __ in range(self.schema.arity))
            self._rows = rows
            self._columns = columns
        self._view_version = self.version

    def _advance_views(self, changes: list[Change]) -> None:
        """Carry the views across *changes*: slice deleted rows out, append
        inserted ones — C-speed copies, no per-row Python transpose."""
        rows = self._rows
        stored = self._tuples
        # The sequence each view row had when the view was taken: a row
        # the log touched shows it in its first (delete) entry, every
        # other row still has it. The rows are sorted by it.
        view_seq: dict[Tuple, int] = {}
        gone: list[int] = []
        appended: dict[int, Tuple] = {}
        for t, seq, inserted in changes:
            if inserted:
                appended[seq] = t
            elif appended.pop(seq, None) is None:
                view_seq.setdefault(t, seq)
                gone.append(seq)

        def seq_in_view(row: Tuple) -> int:
            seq = view_seq.get(row)
            return stored[row] if seq is None else seq

        kept: list[tuple[int, int]] = []
        start = 0
        drops = sorted(bisect_left(rows, seq, key=seq_in_view) for seq in gone)
        for stop in drops:
            if stop > start:
                kept.append((start, stop))
            start = stop + 1
        kept.append((start, len(rows)))
        added = list(appended.values())

        def splice(old, extra):
            if len(kept) == 1:
                (a, b), = kept
                return old[a:b] + extra
            out: list = []
            for a, b in kept:
                out += old[a:b]
            out += extra
            return out

        self._rows = splice(rows, added)
        self._columns = tuple(
            tuple(splice(column, tuple(t.values[p] for t in added)))
            for p, column in enumerate(self._columns)
        )

    def rows(self) -> list[Tuple]:
        """The tuples as a cached insertion-ordered list (do not mutate).

        Carried forward lazily when :attr:`version` moved since the last
        call (see :meth:`columns`).
        """
        if self._view_version != self.version:
            self._refresh_views()
        return self._rows

    def columns(self) -> tuple[tuple[Any, ...], ...]:
        """Columnar view: one value tuple per attribute, in tuple-insertion
        order (``columns()[schema.positions[A]][i]`` is ``rows()[i][A]``).

        Memoized against :attr:`version` and kept between calls. When the
        version moved by a logged delta, the next call derives the view
        from the previous one by slicing and appending; a first call, a
        ``replace_value`` or a delta longer than the log transposes the
        whole relation.
        """
        if self._view_version != self.version:
            self._refresh_views()
        return self._columns

    def release_views(self) -> None:
        """Drop the columnar views (the next call transposes afresh).

        For callers that are done scanning a relation for good; the
        detection engine keeps the views, because after a small write
        patching them is far cheaper than a new transpose. (A view the
        log can no longer carry forward is dropped by the mutation that
        outran it.)
        """
        self._drop_views()
        self._view_version = -1

    def _drop_views(self) -> None:
        self._columns = None
        self._rows = None

    def matching(
        self, positions: tuple[int, ...], keys: set[tuple[Any, ...]]
    ) -> dict[tuple[Any, ...], list[Tuple]]:
        """The stored tuples whose projection on *positions* is in *keys*,
        grouped per key, each group in insertion order.

        A C-speed search of the first position's column in the kept
        columnar view, then a per-candidate check of the other positions;
        no hash index is built or kept. A view that lags behind by a
        logged delta is searched as it is and corrected from the log.
        Carrying it forward instead would allocate a fresh copy of every
        column per write, which the garbage collector then traverses: on
        bank@50k (2 vCPUs) that doubled the cost of a check after a 1-row
        write.
        """
        stored = self._tuples
        out: dict[tuple[Any, ...], list[Tuple]] = {}
        if not positions:
            if () in keys and stored:
                out[()] = list(stored)
            return out
        # add/discard drop a view the log no longer covers, so a kept
        # view always has its changes logged.
        changes = (
            self.changes_since(self._view_version)
            if self._rows is not None
            else None
        )
        if changes is None:
            self._refresh_views()
            changes = []
        rows = self._rows
        project = _projector(positions)
        # Logged tuples of the wanted keys: their view rows (if any) are
        # stale, and the log says where they are now.
        moved = {t: None for t, __, __ in changes if project(t.values) in keys}
        column = self._columns[positions[0]]
        if len(keys) == 1:
            (head,) = {key[0] for key in keys}
            candidates = _positions_of(column, head)
        else:
            heads = {key[0] for key in keys}
            candidates = compress(
                range(len(rows)), map(heads.__contains__, column)
            )
        for i in candidates:
            t = rows[i]
            if moved and t in moved:
                continue
            key = project(t.values)
            if key in keys:
                out.setdefault(key, []).append(t)
        for t, seq, inserted in changes:
            if inserted and t in moved and stored.get(t) == seq:
                out.setdefault(project(t.values), []).append(t)
        return out

    def index_on(self, attributes: Sequence[str]) -> dict[tuple[Any, ...], dict[Tuple, None]]:
        """Hash index mapping projections on *attributes* to tuple buckets.

        Buckets are insertion-ordered dicts keyed by tuple (treat as
        read-only sets); use :meth:`lookup` for list-shaped results.
        """
        key = tuple(attributes)
        index = self._indexes.get(key)
        if index is None:
            for name in key:
                if name not in self.schema:
                    raise SchemaError(
                        f"relation {self.schema.name!r} has no attribute {name!r}"
                    )
            index = {}
            for t in self._tuples:
                index.setdefault(t.project(key), {})[t] = None
            self._indexes[key] = index
        return index

    def lookup(self, attributes: Sequence[str], values: Sequence[Any]) -> list[Tuple]:
        """All tuples ``t`` with ``t[attributes] == values``."""
        if not attributes:
            return list(self._tuples)
        return list(self.index_on(attributes).get(tuple(values), ()))

    def replace_value(self, old: Any, new: Any) -> int:
        """Replace every occurrence of *old* by *new* across the relation.

        This is the chase's FD-step primitive (variable unification). Returns
        the number of tuples rewritten. Rewriting may merge tuples (set
        semantics), shrinking the relation.
        """
        return len(self.replace_value_tracked(old, new))

    def replace_value_tracked(self, old: Any, new: Any) -> list[Tuple]:
        """Like :meth:`replace_value`, returning the rewritten tuples.

        The chase worklist uses the returned (new) tuples to re-enqueue
        dependency obligations without rescanning the relation.
        """
        affected = [t for t in self._tuples if old in t.values]
        if not affected:
            return []
        mapping = {old: new}
        for t in affected:
            del self._tuples[t]
        self.version += 1
        # A wholesale rewrite is not a logged delta: consumers rebuild.
        self._log.clear()
        self._drop_views()
        self._indexes.clear()
        rewritten = []
        for t in affected:
            replacement = t.substitute(mapping)
            if replacement not in self._tuples:
                self._tuples[replacement] = self._next_seq
                self._next_seq += 1
            rewritten.append(replacement)
        return rewritten

    def variables(self) -> set[Any]:
        out: set[Any] = set()
        for t in self._tuples:
            out |= t.variables()
        return out

    def is_ground(self) -> bool:
        return all(t.is_ground() for t in self._tuples)

    def validate_domains(self) -> None:
        """Check every constant against its attribute domain."""
        for t in self._tuples:
            for attr, value in zip(self.schema.attributes, t.values):
                if is_constant(value) and not attr.domain.contains(value):
                    raise DomainError(
                        f"value {value!r} for {self.schema.name}.{attr.name} "
                        f"is outside domain {attr.domain.name}"
                    )

    def copy(self) -> "RelationInstance":
        """An independent instance with the same tuples in the same order.

        The tuple map is copied wholesale, so the copy shares the
        original's insertion-sequence ``int`` objects instead of
        allocating its own; it starts at version 0 with an empty log.
        """
        out = RelationInstance(self.schema)
        out._tuples = dict(self._tuples)
        out._next_seq = self._next_seq
        return out

    def __repr__(self) -> str:
        return f"<RelationInstance {self.schema.name}: {len(self)} tuples>"


class DatabaseInstance:
    """A database instance ``D = (I1, ..., In)`` over a database schema.

    Every relation of the schema is always present (possibly empty), so
    ``db[name]`` never fails for a valid relation name.
    """

    def __init__(self, schema: DatabaseSchema, relations: Mapping[str, Iterable[Any]] | None = None):
        self.schema = schema
        self._relations: dict[str, RelationInstance] = {
            rel.name: RelationInstance(rel) for rel in schema
        }
        if relations:
            for name, rows in relations.items():
                inst = self[name]
                for row in rows:
                    inst.add(row)

    def __getitem__(self, name: str) -> RelationInstance:
        try:
            return self._relations[name]
        except KeyError:
            raise SchemaError(
                f"database has no relation {name!r}; relations are "
                f"{list(self._relations)}"
            ) from None

    def __iter__(self) -> Iterator[RelationInstance]:
        return iter(self._relations.values())

    def relations(self) -> dict[str, RelationInstance]:
        return dict(self._relations)

    def add(self, relation: str, row: Tuple | Sequence[Any] | Mapping[str, Any]) -> Tuple | None:
        """Insert into *relation*; returns the stored Tuple or ``None`` on duplicate."""
        return self[relation].add(row)

    def total_tuples(self) -> int:
        return sum(len(inst) for inst in self._relations.values())

    def is_empty(self) -> bool:
        return self.total_tuples() == 0

    def is_ground(self) -> bool:
        return all(inst.is_ground() for inst in self._relations.values())

    def variables(self) -> set[Any]:
        out: set[Any] = set()
        for inst in self._relations.values():
            out |= inst.variables()
        return out

    def replace_value(self, old: Any, new: Any) -> int:
        """Replace *old* by *new* in every relation (chase unification step)."""
        return sum(inst.replace_value(old, new) for inst in self._relations.values())

    def release_views(self) -> None:
        """Release every relation's memoized columnar view."""
        for inst in self._relations.values():
            inst.release_views()

    def replace_value_tracked(self, old: Any, new: Any) -> dict[str, list[Tuple]]:
        """Global replacement returning the rewritten tuples per relation."""
        out: dict[str, list[Tuple]] = {}
        for name, inst in self._relations.items():
            rewritten = inst.replace_value_tracked(old, new)
            if rewritten:
                out[name] = rewritten
        return out

    def substitute(self, mapping: Mapping[Any, Any]) -> "DatabaseInstance":
        """A copy of the database with values rewritten through *mapping*."""
        out = DatabaseInstance(self.schema)
        for name, inst in self._relations.items():
            target = out[name]
            for t in inst:
                target.add(t.substitute(mapping))
        return out

    def copy(self) -> "DatabaseInstance":
        out = DatabaseInstance(self.schema)
        out._relations = {
            name: inst.copy() for name, inst in self._relations.items()
        }
        return out

    def validate_domains(self) -> None:
        for inst in self._relations.values():
            inst.validate_domains()

    def map_values(self, fn: Callable[[str, str, Any], Any]) -> "DatabaseInstance":
        """A copy with every value passed through ``fn(relation, attribute, value)``."""
        out = DatabaseInstance(self.schema)
        for name, inst in self._relations.items():
            target = out[name]
            for t in inst:
                target.add(
                    [fn(name, a, v) for a, v in zip(inst.schema.attribute_names, t.values)]
                )
        return out

    def __repr__(self) -> str:
        sizes = ", ".join(f"{n}:{len(i)}" for n, i in self._relations.items())
        return f"<DatabaseInstance {sizes}>"
