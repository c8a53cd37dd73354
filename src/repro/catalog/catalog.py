"""The catalog: the registry of all named objects in a database.

The catalog owns tables (storage objects), secondary-index definitions,
triggers, and audit expressions. It is deliberately ignorant of their
implementations — storage and audit modules register concrete objects here —
which keeps the dependency graph acyclic (catalog ← storage ← executor ...).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

from repro.catalog.statistics import TableStatistics
from repro.errors import CatalogError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.storage.table import Table


@dataclass(frozen=True)
class IndexDefinition:
    """A secondary index over ``table.columns`` (ordered or hash)."""

    name: str
    table: str
    columns: tuple[str, ...]
    unique: bool = False


class Catalog:
    """Mutable registry of tables, indexes, triggers, and audit expressions."""

    def __init__(self) -> None:
        self._tables: dict[str, "Table"] = {}
        self._indexes: dict[str, IndexDefinition] = {}
        self._statistics: dict[str, TableStatistics] = {}
        # Trigger and audit-expression objects are registered by their
        # subsystems; the catalog only provides named storage + lookup.
        self._triggers: dict[str, object] = {}
        self._audit_expressions: dict[str, object] = {}
        #: monotonic counter bumped by every DDL-level change (tables,
        #: indexes, triggers); plan caches key their entries on it so any
        #: change that could alter a compiled plan invalidates
        self.version = 0
        #: statistics epoch, bumped alongside :attr:`version` whenever any
        #: table's row count crosses a power-of-two bucket since the last
        #: check — DML that materially changes cardinalities invalidates
        #: cached plans costed against the old statistics, while steady
        #: small churn does not thrash the plan cache
        self.stats_version = 0
        self._stats_buckets: dict[str, int] = {}
        #: firing-scoped system relations (the trigger manager's
        #: ``accessed``), kept apart from ``_tables``: they bump no
        #: version, count toward no statistics epoch, and register
        #: without the catalog lock
        self._transient: dict[str, "Table"] = {}
        # Serializes registry mutation, version bumps, and the lazy
        # statistics cache against concurrent DDL / serving threads.
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # tables

    def add_table(self, table: "Table", transient: bool = False) -> None:
        """Register a table.

        ``transient=True`` registers a short-lived system relation (the
        trigger manager's ``accessed``) that no cached user plan can
        reference. It skips the DDL version bump, or every firing would
        invalidate every compiled plan, and it stays out of
        :meth:`tables` and the statistics epoch, which serving threads
        read without an engine lock while a firing runs. Callers hold
        the engine write lock, which orders transient registrations.
        """
        name = table.schema.name.lower()
        if transient:
            if self.has_table(name):
                raise CatalogError(f"table {name!r} already exists")
            self._transient[name] = table
            return
        with self._lock:
            if self.has_table(name):
                raise CatalogError(f"table {name!r} already exists")
            self._tables[name] = table
            self.version += 1

    def drop_table(self, name: str, transient: bool = False) -> None:
        key = name.lower()
        if transient:
            if self._transient.pop(key, None) is None:
                raise CatalogError(f"table {name!r} does not exist")
            self._statistics.pop(key, None)
            return
        with self._lock:
            if key not in self._tables:
                raise CatalogError(f"table {name!r} does not exist")
            del self._tables[key]
            self._statistics.pop(key, None)
            self._indexes = {
                index_name: definition
                for index_name, definition in self._indexes.items()
                if definition.table != key
            }
            self.version += 1

    def table(self, name: str) -> "Table":
        key = name.lower()
        table = self._tables.get(key)
        if table is None:
            table = self._transient.get(key)
            if table is None:
                raise CatalogError(f"table {name!r} does not exist")
        return table

    def has_table(self, name: str) -> bool:
        key = name.lower()
        return key in self._tables or key in self._transient

    def tables(self) -> Iterator["Table"]:
        return iter(self._tables.values())

    # ------------------------------------------------------------------
    # secondary indexes

    def add_index(self, definition: IndexDefinition) -> None:
        with self._lock:
            key = definition.name.lower()
            if key in self._indexes:
                raise CatalogError(
                    f"index {definition.name!r} already exists"
                )
            if not self.has_table(definition.table):
                raise CatalogError(
                    f"index {definition.name!r} references missing table "
                    f"{definition.table!r}"
                )
            self._indexes[key] = definition
            self.version += 1

    def indexes_on(self, table: str) -> list[IndexDefinition]:
        key = table.lower()
        return [d for d in self._indexes.values() if d.table == key]

    # ------------------------------------------------------------------
    # statistics

    def statistics(
        self, table_name: str, stale_ok: bool = False
    ) -> TableStatistics:
        """Return fresh statistics, re-gathering if the table changed.

        ``stale_ok=True`` returns the last gathered statistics even when
        the table has changed since (gathering only if there are none).
        """
        table = self.table(table_name)
        key = table_name.lower()
        with self._lock:
            cached = self._statistics.get(key)
            if cached is not None and (
                stale_ok or cached.version == table.version
            ):
                return cached
            stats = TableStatistics.gather(
                table.schema.column_names, table.rows(), table.version,
                block_count=getattr(table, "block_count", 0),
            )
            self._statistics[key] = stats
            return stats

    def refresh_stats_version(self) -> int:
        """Advance :attr:`stats_version` if any table's cardinality moved.

        DML does not bump the DDL :attr:`version` (that would defeat plan
        caching), but a plan costed when a table was empty should not
        survive a bulk load. Row counts are bucketed by power of two: the
        epoch advances exactly when some table's count crosses a bucket
        boundary, i.e. when cached cost estimates are off by more than
        2x. Cheap enough (one ``len`` per table) to run per statement.

        Transient tables are not counted: a firing registers and drops
        its ``accessed`` relation while other threads read the epoch
        without an engine lock, and counting it would flap the epoch on
        every firing and invalidate their cached plans.

        The common case — no bucket moved — takes no lock: every
        statement calls this, from every serving thread.
        """
        buckets = {
            name: len(table).bit_length()
            for name, table in self._tables.copy().items()
        }
        if buckets != self._stats_buckets:
            with self._lock:
                if buckets != self._stats_buckets:
                    self._stats_buckets = buckets
                    self.stats_version += 1
        return self.stats_version

    def sketch_block_selectivity(
        self, table_name: str, column_name: str, ids
    ) -> float:
        """Fraction of the table's blocks that may contain any of ``ids``.

        The data-skipping cost input: an audit operator placed directly
        over a scan of ``table_name`` probes only the blocks whose
        sensitive-ID sketch (plus zone range) admits a candidate, so its
        expected probe cardinality is ``row_count x`` this fraction.
        Returns 1.0 (no skipping benefit) whenever the column is not
        sketched or the consult would not be conservative-cheap.
        """
        table = self.table(table_name)
        try:
            position = table.schema.position_of(column_name)
        except Exception:
            return 1.0
        if position not in getattr(table, "sketch_positions", ()):
            return 1.0
        blocks = table.blocks()
        if not blocks:
            return 1.0
        ids = set(ids)
        if not ids:
            return 0.0
        if len(ids) > 2048:
            return 1.0
        try:
            lo, hi = min(ids), max(ids)
        except TypeError:
            lo = hi = None
        admitted = sum(
            1
            for block in blocks
            if table.fresh_summary(block).may_contain_any(
                position, ids, lo, hi
            )
        )
        return admitted / len(blocks)

    # ------------------------------------------------------------------
    # triggers

    def add_trigger(self, name: str, trigger: object) -> None:
        with self._lock:
            key = name.lower()
            if key in self._triggers:
                raise CatalogError(f"trigger {name!r} already exists")
            self._triggers[key] = trigger
            self.version += 1

    def drop_trigger(self, name: str) -> None:
        with self._lock:
            if name.lower() not in self._triggers:
                raise CatalogError(f"trigger {name!r} does not exist")
            del self._triggers[name.lower()]
            self.version += 1

    def trigger(self, name: str) -> object:
        try:
            return self._triggers[name.lower()]
        except KeyError:
            raise CatalogError(f"trigger {name!r} does not exist") from None

    def triggers(self) -> Iterator[object]:
        return iter(self._triggers.values())

    # ------------------------------------------------------------------
    # audit expressions

    def add_audit_expression(self, name: str, expression: object) -> None:
        key = name.lower()
        if key in self._audit_expressions:
            raise CatalogError(f"audit expression {name!r} already exists")
        self._audit_expressions[key] = expression

    def drop_audit_expression(self, name: str) -> None:
        if name.lower() not in self._audit_expressions:
            raise CatalogError(f"audit expression {name!r} does not exist")
        del self._audit_expressions[name.lower()]

    def audit_expression(self, name: str) -> object:
        try:
            return self._audit_expressions[name.lower()]
        except KeyError:
            raise CatalogError(
                f"audit expression {name!r} does not exist"
            ) from None

    def audit_expressions(self) -> Iterator[object]:
        return iter(self._audit_expressions.values())
