"""Flat-file format for point sets and boxed sets.

Layout (diff-friendly, hand-writable)::

    # optional comments
    group 2x3          (or: box 4)
    0,0
    1,2

The header names the ambient group (or base box); every following non-empty,
non-``#`` line is one point as comma-separated integer coordinates. Duplicate
points are rejected at parse. ``parse`` then ``serialize`` reproduces a
canonical file byte for byte.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .groups import GroupElement, GroupSpec, PointSet, parse_group_spec
from .lifting import BoxedSet


# An optional ASCII sign and ASCII digits only: int() alone would also take
# "1_0" and non-ASCII decimal digits.
_INT_RE = re.compile(r"[+-]?[0-9]+")


def ascii_int(text: str) -> int:
    """``text`` as an integer, taking only an optional ASCII sign and ASCII digits."""
    if not _INT_RE.fullmatch(text):
        raise ValueError(f"expected an integer in ASCII digits, got {text!r}")
    return int(text)


class SetFileError(ValueError):
    """Malformed set file."""


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


def serialize_point_set(ps: PointSet) -> str:
    lines = [f"group {ps.group.spec_string()}"]
    lines.extend(",".join(str(c) for c in p.coords) for p in ps.points)
    return "\n".join(lines) + "\n"


def serialize_boxed_set(bs: BoxedSet) -> str:
    if not bs.is_base:
        raise ValueError("only base-boxed sets are serialized to files")
    lines = [f"box {'x'.join(str(n) for n in bs.dims)}"]
    lines.extend(",".join(str(c) for c in p) for p in bs.points)
    return "\n".join(lines) + "\n"
