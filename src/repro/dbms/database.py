"""A miniature in-memory relational engine.

Only what the archival pipeline and its benchmarks need: typed tables, row
insertion with validation, simple scans/filters/aggregations, and equality
comparison so a restored database can be proven identical to the original.
Values are kept in their textual-archive-friendly forms (ints, fixed-point
decimals as strings, dates as ISO strings), which keeps ``db_dump`` followed
by ``db_load`` exactly reversible.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from repro.errors import SchemaError


class ColumnType(enum.Enum):
    """SQL column types supported by the engine."""

    INTEGER = "INTEGER"
    DECIMAL = "DECIMAL(15,2)"
    VARCHAR = "VARCHAR"
    DATE = "DATE"

    @classmethod
    def from_sql(cls, text: str) -> "ColumnType":
        """Parse a SQL type name (ignoring length/precision arguments)."""
        normalised = text.strip().upper()
        if normalised.startswith("INT") or normalised in ("BIGINT", "SMALLINT"):
            return cls.INTEGER
        if normalised.startswith(("DECIMAL", "NUMERIC")):
            return cls.DECIMAL
        if normalised.startswith(("VARCHAR", "CHAR", "TEXT")):
            return cls.VARCHAR
        if normalised.startswith("DATE"):
            return cls.DATE
        raise SchemaError(f"unsupported SQL type {text!r}")


_DATE_PATTERN = re.compile(r"^\d{4}-\d{2}-\d{2}$")
_DECIMAL_PATTERN = re.compile(r"^-?\d+\.\d{2}$")


@dataclass(frozen=True)
class Column:
    """A named, typed column."""

    name: str
    type: ColumnType

    def validate(self, value: "int | str | None") -> None:
        """Raise :class:`SchemaError` if ``value`` does not fit this column."""
        if value is None:
            return
        if self.type == ColumnType.INTEGER:
            if not isinstance(value, int) or isinstance(value, bool):
                raise SchemaError(f"column {self.name}: expected int, got {value!r}")
        elif self.type == ColumnType.DECIMAL:
            if not isinstance(value, str) or not _DECIMAL_PATTERN.match(value):
                raise SchemaError(
                    f"column {self.name}: decimals are fixed-point strings like '12.34', "
                    f"got {value!r}"
                )
        elif self.type == ColumnType.VARCHAR:
            if not isinstance(value, str):
                raise SchemaError(f"column {self.name}: expected str, got {value!r}")
            if "\n" in value or "\r" in value:
                raise SchemaError(
                    f"column {self.name}: text values must not contain line breaks "
                    "(the SQL archive format is line-oriented)"
                )
        elif self.type == ColumnType.DATE:
            if not isinstance(value, str) or not _DATE_PATTERN.match(value):
                raise SchemaError(
                    f"column {self.name}: dates are ISO strings like '1995-03-17', got {value!r}"
                )


@dataclass
class Table:
    """A named collection of typed rows."""

    name: str
    columns: list[Column]
    rows: "list[tuple[int | str | None, ...]]" = field(default_factory=list)

    def __post_init__(self) -> None:
        names = [column.name for column in self.columns]
        if len(set(names)) != len(names):
            raise SchemaError(f"table {self.name}: duplicate column names")

    # ------------------------------------------------------------------ #
    def column_index(self, name: str) -> int:
        """Position of a column by name."""
        for index, column in enumerate(self.columns):
            if column.name == name:
                return index
        raise SchemaError(f"table {self.name}: no column named {name!r}")

    @property
    def row_count(self) -> int:
        """Number of rows currently stored."""
        return len(self.rows)

    # ------------------------------------------------------------------ #
    def insert(self, row: "Iterable[int | str | None]") -> None:
        """Insert a row after validating it against the schema."""
        values = tuple(row)
        if len(values) != len(self.columns):
            raise SchemaError(
                f"table {self.name}: row has {len(values)} values for "
                f"{len(self.columns)} columns"
            )
        for column, value in zip(self.columns, values):
            column.validate(value)
        self.rows.append(values)

    # ------------------------------------------------------------------ #
    def scan(self) -> "Iterator[tuple[int | str | None, ...]]":
        """Iterate over all rows."""
        return iter(self.rows)

    def select(
        self, predicate: "Callable[[tuple[int | str | None, ...]], bool]"
    ) -> "list[tuple[int | str | None, ...]]":
        """Rows satisfying ``predicate``."""
        return [row for row in self.rows if predicate(row)]

    def column_values(self, name: str) -> "list[int | str | None]":
        """All values of one column."""
        index = self.column_index(name)
        return [row[index] for row in self.rows]

    def sum(self, name: str) -> float:
        """Sum of a numeric column (decimals are parsed from their strings)."""
        index = self.column_index(name)
        column = self.columns[index]
        if column.type == ColumnType.INTEGER:
            return float(sum(row[index] for row in self.rows))
        if column.type == ColumnType.DECIMAL:
            return float(sum(float(row[index]) for row in self.rows))
        raise SchemaError(f"column {name} of table {self.name} is not numeric")

    # ------------------------------------------------------------------ #
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Table):
            return NotImplemented
        return (
            self.name == other.name
            and self.columns == other.columns
            and self.rows == other.rows
        )


class Database:
    """A named collection of tables."""

    def __init__(self, name: str = "archive"):
        self.name = name
        self._tables: dict[str, Table] = {}

    # ------------------------------------------------------------------ #
    def create_table(self, name: str, columns: list[Column]) -> Table:
        """Create a new empty table."""
        if name in self._tables:
            raise SchemaError(f"table {name!r} already exists")
        table = Table(name=name, columns=list(columns))
        self._tables[name] = table
        return table

    def add_table(self, table: Table) -> None:
        """Register an existing table object."""
        if table.name in self._tables:
            raise SchemaError(f"table {table.name!r} already exists")
        self._tables[table.name] = table

    def table(self, name: str) -> Table:
        """Look a table up by name."""
        try:
            return self._tables[name]
        except KeyError as exc:
            raise SchemaError(f"no table named {name!r}") from exc

    @property
    def table_names(self) -> list[str]:
        """Names of all tables, in creation order."""
        return list(self._tables)

    @property
    def tables(self) -> list[Table]:
        """All tables, in creation order."""
        return list(self._tables.values())

    @property
    def total_rows(self) -> int:
        """Total number of rows across all tables."""
        return sum(table.row_count for table in self.tables)

    # ------------------------------------------------------------------ #
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Database):
            return NotImplemented
        return self.table_names == other.table_names and all(
            self.table(name) == other.table(name) for name in self.table_names
        )
