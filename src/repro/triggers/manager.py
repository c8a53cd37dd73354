"""Trigger manager: registration, firing, cascading (§II-C).

SELECT-trigger actions run *after* the reading query finishes (or aborts),
as their own system transaction, with the ACCESSED internal state exposed
as a relation named ``accessed`` whose single column is the audit
expression's partition-by key. Each trigger keeps that relation as one
reusable table, refilled per firing, and compiles its body's SELECTs once
against it (:class:`_Action`). DML triggers fire per modified row with the
``NEW``/``OLD`` pseudo-rows in scope.

Cascades are bounded by :data:`MAX_TRIGGER_DEPTH` (32, as in SQL Server):
a SELECT trigger's INSERT can fire an AFTER INSERT trigger whose body runs
a SELECT that fires further SELECT triggers, and so on.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING

from repro.catalog.schema import Column, TableSchema
from repro.errors import AccessDeniedError, TriggerError
from repro.plancache import CachedPlan
from repro.sql import ast
from repro.storage.table import RowChange, Table
from repro.triggers.definitions import DmlTrigger, SelectTrigger

if TYPE_CHECKING:  # pragma: no cover - cycle guard
    from repro.database import Database

MAX_TRIGGER_DEPTH = 32


class TriggerManager:
    """Owns trigger definitions and drives their execution."""

    def __init__(self, database: "Database") -> None:
        self._database = database
        self._select_triggers: dict[str, SelectTrigger] = {}
        #: timings of the registered SELECT triggers, and the triggers
        #: by audit expression (creation order)
        self._timings: frozenset[str] = frozenset()
        self._by_expression: dict[str, tuple[SelectTrigger, ...]] = {}
        self._dml_triggers: dict[str, DmlTrigger] = {}
        self._observed_tables: set[str] = set()
        #: SELECT trigger name -> compiled firing state (engine write
        #: lock held: firings and trigger DDL both take it)
        self._actions: dict[str, _Action] = {}
        # cascade depth is per-thread: the async pipeline worker fires
        # triggers concurrently with serving threads' own cascades
        self._local = threading.local()

    # ------------------------------------------------------------------
    # registration

    def add_select_trigger(self, trigger: SelectTrigger) -> None:
        self._database.audit_manager.expression(trigger.audit_expression)
        self._database.catalog.add_trigger(trigger.name, trigger)
        self._select_triggers[trigger.name.lower()] = trigger
        self._index_select_triggers()

    def add_dml_trigger(self, trigger: DmlTrigger) -> None:
        table = self._database.catalog.table(trigger.table)  # validates
        self._database.catalog.add_trigger(trigger.name, trigger)
        self._dml_triggers[trigger.name.lower()] = trigger
        key = table.schema.name
        if key not in self._observed_tables:
            table.add_observer(self._on_row_change)
            self._observed_tables.add(key)

    def drop_trigger(self, name: str) -> None:
        key = name.lower()
        if key in self._select_triggers:
            del self._select_triggers[key]
            self._actions.pop(key, None)
            self._index_select_triggers()
        elif key in self._dml_triggers:
            del self._dml_triggers[key]
        else:
            raise TriggerError(f"trigger {name!r} does not exist")
        self._database.catalog.drop_trigger(name)

    def select_triggers_for(self, audit_expression: str
                            ) -> tuple[SelectTrigger, ...]:
        return self._by_expression.get(audit_expression.lower(), ())

    def has_select_triggers(self, timing: str | None = None) -> bool:
        if timing is None:
            return bool(self._select_triggers)
        return timing in self._timings

    def _index_select_triggers(self) -> None:
        # read on every audited statement: kept precomputed
        triggers = self._select_triggers.values()
        self._timings = frozenset(trigger.timing for trigger in triggers)
        by_expression: dict[str, tuple[SelectTrigger, ...]] = {}
        for trigger in triggers:
            by_expression[trigger.audit_expression] = (
                by_expression.get(trigger.audit_expression, ()) + (trigger,)
            )
        self._by_expression = by_expression

    # ------------------------------------------------------------------
    # SELECT trigger firing (§II: after the query, own transaction)

    def fire_select_triggers(
        self, accessed: dict[str, set], timing: str = "after"
    ) -> None:
        """Run the actions of matching triggers with the given timing."""
        for audit_name, ids in accessed.items():
            if not ids:
                continue
            for trigger in self.select_triggers_for(audit_name):
                if trigger.timing != timing:
                    continue
                self._run_select_trigger(trigger, audit_name, ids)

    def _run_select_trigger(
        self, trigger: SelectTrigger, audit_name: str, ids: set
    ) -> None:
        database = self._database
        if database.catalog.has_table("accessed"):
            raise TriggerError(
                "a relation named 'accessed' already exists; it is "
                "reserved for SELECT trigger actions"
            )
        action = self._action(trigger, audit_name)
        accessed = action.accessed
        accessed.truncate()
        accessed.bulk_load((value,) for value in sorted(ids, key=repr))
        # transient: the firing-scoped system relation must not bump the
        # catalog DDL version, or every firing would flush the plan cache
        database.catalog.add_table(accessed, transient=True)
        try:
            self._enter()
            try:
                for position, statement in enumerate(trigger.body):
                    database.execute_trigger_statement(
                        statement,
                        source=action.source(position, statement, database),
                    )
            except AccessDeniedError:
                if trigger.timing != "before":
                    raise TriggerError(
                        f"trigger {trigger.name!r}: DENY is only valid in "
                        "BEFORE SELECT triggers"
                    ) from None
                raise
            finally:
                self._leave()
        finally:
            database.catalog.drop_table("accessed", transient=True)

    def _action(self, trigger: SelectTrigger, audit_name: str) -> "_Action":
        """The trigger's compiled firing state, rebuilt when the engine's
        plan-cache tags have moved since it was built (table, index,
        trigger or audit DDL, a statistics epoch, a planning knob)."""
        database = self._database
        tags = database._plan_cache_tags()
        action = self._actions.get(trigger.name)
        if action is not None and action.tags == tags:
            return action
        expression = database.audit_manager.expression(audit_name)
        sensitive = database.catalog.table(expression.sensitive_table)
        id_column = sensitive.schema.column(expression.partition_by)
        schema = TableSchema(
            name="accessed",
            columns=(Column(id_column.name, id_column.data_type),),
        )
        action = _Action(tags, Table(schema))
        self._actions[trigger.name] = action
        return action

    # ------------------------------------------------------------------
    # DML trigger firing (row-level AFTER)

    def _on_row_change(self, change: RowChange) -> None:
        if change.compensating:
            return  # rollback repairs state; it is not a business event
        triggers = [
            trigger
            for trigger in self._dml_triggers.values()
            if trigger.table == change.table
            and trigger.event.lower() == change.kind
        ]
        if not triggers:
            return
        table = self._database.catalog.table(change.table)
        scope_columns, pseudo_row = _trigger_row(table, change)
        for trigger in triggers:
            self._enter()
            try:
                for statement in trigger.body:
                    self._database.execute_trigger_statement(
                        statement, scope_columns, pseudo_row
                    )
            finally:
                self._leave()

    # ------------------------------------------------------------------
    # cascade depth

    def _enter(self) -> None:
        depth = getattr(self._local, "depth", 0)
        if depth >= MAX_TRIGGER_DEPTH:
            raise TriggerError(
                f"trigger cascade exceeded depth {MAX_TRIGGER_DEPTH}"
            )
        self._local.depth = depth + 1

    def _leave(self) -> None:
        self._local.depth = getattr(self._local, "depth", 1) - 1


class _Action:
    """One SELECT trigger's firing state, compiled once per ``tags``.

    ``accessed`` is the trigger's reusable transient relation: each
    firing refills it and binds it to the name ``accessed`` for the
    duration of the action. ``sources`` holds the compiled plan of each
    body statement that reads a SELECT (``INSERT ... SELECT`` or a bare
    SELECT), by body position; those plans scan ``accessed`` itself, so
    they stay valid exactly as long as it does. ``sql_text()`` and
    ``user_id()`` are read from the session when a plan runs, so they
    are per-firing values.
    """

    __slots__ = ("tags", "accessed", "sources")

    def __init__(self, tags: tuple, accessed: Table) -> None:
        self.tags = tags
        self.accessed = accessed
        self.sources: dict[int, CachedPlan] = {}

    def source(
        self, position: int, statement: ast.Statement, database: "Database"
    ) -> CachedPlan | None:
        plan = self.sources.get(position)
        if plan is None:
            if isinstance(statement, ast.SelectStatement):
                select = statement
            elif isinstance(statement, ast.InsertStatement):
                select = statement.select
            else:
                return None
            if select is None:
                return None
            plan = self.sources[position] = database.compile_select(select)
        return plan


def _trigger_row(table: Table, change: RowChange):
    """Build the NEW/OLD pseudo-scope and pseudo-row for a change."""
    from repro.plan.logical import PlanColumn

    width = len(table.schema.columns)
    new_row = change.new_row or (None,) * width
    old_row = change.old_row or (None,) * width
    columns = tuple(
        PlanColumn(column.name, "new", (table.schema.name, column.name))
        for column in table.schema.columns
    ) + tuple(
        PlanColumn(column.name, "old", (table.schema.name, column.name))
        for column in table.schema.columns
    )
    return columns, tuple(new_row) + tuple(old_row)
