"""DESIGN.md S31's snapshot layout table agrees with the schema the
validator walks (``repro.service._SCHEMA``).

Each group row's first cell names one or more groups (`` `spec.*` ``,
`` `sparse.quantile.current.*` ``) or a column pattern (`` `sparse.*.task`
``); an empty first cell continues the row above. A group row's columns
are the backticked names of its "holds" cell outside parentheses.
"""

from __future__ import annotations

import pathlib
import re
from fnmatch import fnmatchcase

from repro.service import _SCHEMA, _Group

DESIGN_MD = pathlib.Path(__file__).resolve().parents[1] / "DESIGN.md"


def _schema_columns(where: str, group: _Group) -> set[str]:
    columns = set()
    for key, entry in group.columns.items():
        if isinstance(entry, _Group):
            columns |= _schema_columns(f"{where}.{key}", entry)
        else:
            columns.add(f"{where}.{key}")
    return columns


def _design_columns() -> set[str]:
    """The column paths (or patterns) the layout table names."""
    text = DESIGN_MD.read_text()
    table = text[text.index("| top-level key | holds |"):]
    table = table[:table.index("\n\n")]
    named, groups = set(), []
    for row in table.splitlines()[2:]:
        first, holds = (cell.strip() for cell in row.split("|")[1:3])
        if first:
            groups = re.findall(r"`([a-z_.*]+)`", first)
        if not all("." in group for group in groups):
            continue  # a top-level key
        for group in groups:
            if not group.endswith(".*"):
                named.add(group)
                continue
            while re.search(r"\([^()]*\)", holds):
                holds = re.sub(r"\([^()]*\)", "", holds)
            named |= {group[:-1] + key
                      for key in re.findall(r"`([a-z_]+)`", holds)}
    return named


def test_every_schema_column_is_in_the_layout_table():
    named = _design_columns()
    columns = set().union(*(_schema_columns(group, schema)
                            for group, schema in _SCHEMA.items()))
    assert len(columns) > 80
    missing = {column for column in columns
               if not any(fnmatchcase(column, name) for name in named)}
    assert not missing, f"DESIGN.md S31 does not name {sorted(missing)}"
    stray = {name for name in named
             if not any(fnmatchcase(column, name) for column in columns)}
    assert not stray, f"DESIGN.md S31 names {sorted(stray)}, which " \
                      f"the schema lacks"
