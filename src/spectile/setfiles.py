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
import sys
from itertools import compress, cycle

import numpy as np

from .groups import GroupSpec, PointSet, parse_group_spec
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


def _read(text: str) -> tuple[str, GroupSpec, list[int]]:
    """The header's kind and spec, and the coordinates of every row, in one flat list.

    With d factors in the header, a row is d comma-separated ASCII integers,
    each with any whitespace ``str.strip`` takes around it. The rows match
    one compiled pattern; with commas read as spaces, one ``split`` of them
    gives every integer. Any other line that is neither blank nor a comment
    is diagnosed.
    """
    lines = text.splitlines()
    at = next((i for i, raw in enumerate(lines) if raw.strip()[:1] not in ("", "#")), None)
    if at is None:
        raise SetFileError("missing 'group <spec>' or 'box <spec>' header")
    parts = lines[at].strip().split(None, 1)
    if len(parts) != 2 or parts[0] not in ("group", "box"):
        raise SetFileError(f"line {at + 1}: expected 'group <spec>' or 'box <spec>' header")
    try:
        spec = parse_group_spec(parts[1])
    except ValueError as exc:
        raise SetFileError(f"line {at + 1}: {exc}") from exc
    d = len(spec.orders)
    # At most the digits int() converts (leading zeros count, sign and spaces do not).
    digits = sys.get_int_max_str_digits() or ""
    num = rf"[+-]?[0-9]{{1,{digits}}}"
    row = re.compile(rf"\s*{num}\s*(?:,\s*{num}\s*){{{d - 1}}}")
    body = lines[at + 1 :]
    rows = list(compress(body, map(row.fullmatch, body)))
    if len(rows) < len(body):  # blank lines, comments, or a malformed row
        for lineno, raw in enumerate(body, start=at + 2):
            line = raw.strip()
            if line[:1] in ("", "#") or row.fullmatch(raw):
                continue
            toks = line.split(",")
            if all(_INT_RE.fullmatch(tok.strip()) for tok in toks):
                if len(toks) == d:
                    raise SetFileError(f"line {lineno}: more than {digits} digits in a coordinate")
                raise SetFileError(f"line {lineno}: expected {d} coordinates, got {len(toks)}")
            raise SetFileError(f"line {lineno}: expected comma-separated integers, got {line!r}")
    return parts[0], spec, list(map(int, " ".join(rows).replace(",", " ").split()))


def point_set_from_file(text: str) -> PointSet:
    """Parse a ``group`` file; coordinates are reduced, duplicates rejected."""
    kind, spec, values = _read(text)
    if kind != "group":
        raise SetFileError(f"expected a 'group' file, found '{kind}'")
    d = len(spec.orders)
    try:
        coords = np.array(values, dtype=np.int64)
    except OverflowError:  # a coordinate beyond int64: reduce every one as a Python int
        coords = np.array([c % n for c, n in zip(values, cycle(spec.orders))], dtype=np.int64)
    ranks = spec.encode(coords.reshape(-1, d) % np.array(spec.orders))
    order = np.argsort(ranks, kind="stable")  # repeats of a rank follow its first row
    ranks = ranks[order]
    repeats = order[1:][ranks[1:] == ranks[:-1]]
    if repeats.size:
        i = int(repeats.min()) * d
        raise SetFileError(f"duplicate point {','.join(map(str, values[i : i + d]))}")
    return PointSet.from_ranks(spec, ranks)


def boxed_set_from_file(text: str) -> BoxedSet:
    """Parse a ``box`` file; points must lie inside the base box."""
    kind, spec, values = _read(text)
    if kind != "box":
        raise SetFileError(f"expected a 'box' file, found '{kind}'")
    rows = tuple(zip(*[iter(values)] * len(spec.orders)))
    if len(set(rows)) != len(rows):
        raise SetFileError("duplicate point in box file")
    try:
        return BoxedSet(spec.orders, rows, lift_factor=1)
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
