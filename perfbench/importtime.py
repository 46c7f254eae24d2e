"""Parser for the ``python -X importtime`` report on standard error.

Each line reads ``import time: <self us> | <cumulative us> | <indent><module>``,
two spaces of indent per nesting level, printed when the import finishes.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ImportEntry:
    module: str
    self_us: int
    cumulative_us: int
    depth: int


def parse(text: str) -> list[ImportEntry]:
    """Entries in report order; the header line and any other output are skipped."""
    entries = []
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3:
            continue
        self_field, cum_field, name_field = fields
        try:
            self_us = int(self_field)
            cumulative_us = int(cum_field)
        except ValueError:  # the "self [us] | cumulative | imported package" header
            continue
        # One space separates the bar from the name; the rest is indent.
        name = name_field[1:] if name_field.startswith(" ") else name_field
        stripped = name.lstrip(" ")
        depth = (len(name) - len(stripped)) // 2
        entries.append(ImportEntry(stripped.rstrip(), self_us, cumulative_us, depth))
    return entries


def cumulative_s(entries: list[ImportEntry], module: str) -> float:
    """Cumulative seconds charged to the first import of ``module``."""
    for entry in entries:
        if entry.module == module:
            return entry.cumulative_us / 1e6
    raise KeyError(f"{module} not in the import report")


def package_total_s(entries: list[ImportEntry], package: str) -> float:
    """Seconds spent in top-level imports of ``package`` and its submodules:
    the whole cost of importing it, dependencies included."""
    return sum(e.cumulative_us for e in entries
               if e.depth == 0 and (e.module == package or e.module.startswith(package + "."))) / 1e6
