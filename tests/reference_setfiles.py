"""Reference set-file reader: the per-token, per-element parser, kept for the tests.

``spectile.setfiles`` reads a file in one pass, and a ``group`` file
straight to a rank array. This copy splits and checks every token, and
builds one ``GroupElement`` per point of a ``group`` file; tests require both
to give the same set, or to raise the same message.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from spectile.groups import GroupElement, GroupSpec, PointSet, parse_group_spec
from spectile.lifting import BoxedSet
from spectile.setfiles import SetFileError

_INT_RE = re.compile(r"[+-]?[0-9]+")


@dataclass(frozen=True)
class ParsedSetFile:
    kind: str  # "group" or "box"
    spec: GroupSpec
    rows: tuple[tuple[int, ...], ...]


def parse_set_file(text: str) -> ParsedSetFile:
    header: tuple[str, GroupSpec] | None = None
    rows: list[tuple[int, ...]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if header is None:
            parts = line.split(None, 1)
            if len(parts) != 2 or parts[0] not in ("group", "box"):
                raise SetFileError(
                    f"line {lineno}: expected 'group <spec>' or 'box <spec>' header"
                )
            try:
                spec = parse_group_spec(parts[1])
            except ValueError as exc:
                raise SetFileError(f"line {lineno}: {exc}") from exc
            header = (parts[0], spec)
            continue
        toks = [tok.strip() for tok in line.split(",")]
        if not all(_INT_RE.fullmatch(tok) for tok in toks):
            raise SetFileError(
                f"line {lineno}: expected comma-separated integers, got {line!r}"
            )
        coords = tuple(int(tok) for tok in toks)
        if len(coords) != len(header[1].orders):
            raise SetFileError(
                f"line {lineno}: expected {len(header[1].orders)} coordinates, "
                f"got {len(coords)}"
            )
        rows.append(coords)
    if header is None:
        raise SetFileError("missing 'group <spec>' or 'box <spec>' header")
    return ParsedSetFile(kind=header[0], spec=header[1], rows=tuple(rows))


def point_set_from_file(text: str) -> PointSet:
    """Parse a ``group`` file; coordinates are reduced, duplicates rejected."""
    parsed = parse_set_file(text)
    if parsed.kind != "group":
        raise SetFileError(f"expected a 'group' file, found '{parsed.kind}'")
    spec = parsed.spec
    seen: set[tuple[int, ...]] = set()
    elems = []
    for row in parsed.rows:
        el = GroupElement(spec, row)
        if el.coords in seen:
            raise SetFileError(f"duplicate point {','.join(map(str, row))}")
        seen.add(el.coords)
        elems.append(el)
    return PointSet(spec, elems)


def boxed_set_from_file(text: str) -> BoxedSet:
    """Parse a ``box`` file; points must lie inside the base box."""
    parsed = parse_set_file(text)
    if parsed.kind != "box":
        raise SetFileError(f"expected a 'box' file, found '{parsed.kind}'")
    dims = parsed.spec.orders
    if len(set(parsed.rows)) != len(parsed.rows):
        raise SetFileError("duplicate point in box file")
    try:
        return BoxedSet(dims, parsed.rows, lift_factor=1)
    except ValueError as exc:
        raise SetFileError(str(exc)) from exc
