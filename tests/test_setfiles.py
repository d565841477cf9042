from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_setfiles
from spectile.groups import GroupSpec, PointSet
from spectile.lifting import BoxedSet
from spectile.setfiles import (
    SetFileError,
    boxed_set_from_file,
    point_set_from_file,
    serialize_boxed_set,
    serialize_point_set,
)


def test_roundtrip_point_set():
    g = GroupSpec([2, 3])
    ps = PointSet.from_coords(g, [[1, 2], [0, 0], [1, 0]])
    text = serialize_point_set(ps)
    assert point_set_from_file(text) == ps
    assert serialize_point_set(point_set_from_file(text)) == text


def test_roundtrip_boxed_set():
    bs = BoxedSet([4, 4], [[0, 0], [3, 1]])
    text = serialize_boxed_set(bs)
    assert boxed_set_from_file(text) == bs
    assert serialize_boxed_set(boxed_set_from_file(text)) == text


def test_comments_and_blank_lines_ignored():
    text = "# a comment\n\ngroup 4\n# another\n0\n\n2\n"
    ps = point_set_from_file(text)
    assert [p.coords for p in ps.points] == [(0,), (2,)]


def test_coordinates_are_reduced_in_group_files():
    ps = point_set_from_file("group 4\n-1\n6\n")
    assert [p.coords for p in ps.points] == [(2,), (3,)]


def test_duplicates_rejected():
    with pytest.raises(SetFileError, match="duplicate"):
        point_set_from_file("group 4\n1\n5\n")
    with pytest.raises(SetFileError, match="duplicate"):
        boxed_set_from_file("box 4\n1\n1\n")


def test_missing_header():
    with pytest.raises(SetFileError, match="header"):
        point_set_from_file("0\n1\n")


def test_bad_header_spec():
    with pytest.raises(SetFileError):
        point_set_from_file("group 4x\n0\n")


def test_wrong_kind():
    with pytest.raises(SetFileError, match="expected a 'group'"):
        point_set_from_file("box 4\n0\n")
    with pytest.raises(SetFileError, match="expected a 'box'"):
        boxed_set_from_file("group 4\n0\n")


def test_wrong_arity():
    with pytest.raises(SetFileError, match="coordinates"):
        point_set_from_file("group 2x3\n0\n")


def test_non_integer_rows():
    with pytest.raises(SetFileError, match="integers"):
        point_set_from_file("group 4\nzero\n")


@pytest.mark.parametrize(
    "row", ["1_0", "\u0661\u0662", "\uff13", "0,\u0663", "++1", "1.0", "0x1", ""]
)
def test_rows_take_only_ascii_integers(row):
    with pytest.raises(SetFileError, match="integers"):
        point_set_from_file(f"group 4x4\n0,{row}\n")
    with pytest.raises(SetFileError, match="integers"):
        boxed_set_from_file(f"box 4x4\n{row},0\n")


def test_header_spec_takes_only_ascii_digits():
    with pytest.raises(SetFileError, match="malformed"):
        point_set_from_file("group \u0661\u0662\n0\n")


def test_whitespace_and_sign_around_coordinates_kept():
    ps = point_set_from_file("group 4x4\n 1 , -1\n+2,\t3 \n")
    assert [p.coords for p in ps.points] == [(1, 3), (2, 3)]


def test_box_points_must_fit_box():
    with pytest.raises(SetFileError):
        boxed_set_from_file("box 4\n4\n")
    with pytest.raises(SetFileError):
        boxed_set_from_file("box 4\n-1\n")


# Whitespace that str.strip takes, in ASCII and beyond, with "\x1f", which
# int() alone refuses; and line ends that str.splitlines takes.
_SPACES = " \t\x1f\xa0\u2007\u3000"
_LINE_ENDS = ["\n"] * 4 + ["\r\n", "\r", "\x0b", "\x85", "\u2028"]
_BAD_TOKENS = ["1_0", "\u0661", "\uff13", "", "x", "1.0", "0x1", "++1", "1 2", "#1"]


@st.composite
def set_files(draw) -> str:
    """Set files near the format's edges, for the reader and its reference."""
    orders = draw(st.lists(st.integers(1, 12), min_size=1, max_size=3))
    spec = "x".join(map(str, orders))
    header = draw(st.sampled_from([f"group {spec}"] * 10 + [
        f"box {spec}", f"  group\t{spec} ", "", "group", f"grp {spec}", f"group {spec}x",
        "group \u0661", f"group {spec} 2",
    ]))
    space = st.text(st.sampled_from(_SPACES), max_size=2)
    lines = draw(st.lists(st.sampled_from(["", "# comment 1,2", "  # 3", " "]), max_size=2))
    lines.append(header)
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(["row"] * 16 + ["blank", "comment", "bad", "arity"]))
        if kind == "blank":
            lines.append(draw(space))
            continue
        if kind == "comment":
            lines.append(draw(space) + "#" + draw(st.sampled_from(["", " 1,2", "x"])))
            continue
        # Values up to twice each factor: rows repeat, at times only after reduction.
        values = [draw(st.integers(-2 * n, 2 * n)) for n in orders]
        if kind == "arity":
            values = values[:-1] if len(values) > 1 and draw(st.booleans()) else values + [0]
        if draw(st.integers(0, 9)) == 0:
            values[0] += draw(st.sampled_from([2**63, -(2**64), 2**70]))  # beyond int64
        toks = [draw(st.sampled_from(["", "+", "0", "00"])) * (v >= 0) + str(v) for v in values]
        if kind == "bad":
            toks[draw(st.integers(0, len(toks) - 1))] = draw(st.sampled_from(_BAD_TOKENS))
        lines.append(",".join(draw(space) + t + draw(space) for t in toks))
    return "".join(line + draw(st.sampled_from(_LINE_ENDS)) for line in lines)


def _outcome(read, text: str):
    try:
        result = read(text)
    except SetFileError as exc:
        return "error", str(exc)
    if isinstance(result, PointSet):
        return result.group, result.rank_array.tolist()
    return result.dims, result.points


@settings(max_examples=400, deadline=None)
@given(set_files())
def test_reader_matches_the_reference_parser(text):
    # One pass straight to ranks gives the set, or the message, of the
    # per-token, per-element parser.
    for read, reference in ((point_set_from_file, reference_setfiles.point_set_from_file),
                            (boxed_set_from_file, reference_setfiles.boxed_set_from_file)):
        assert _outcome(read, text) == _outcome(reference, text)


@pytest.mark.parametrize("text, message", [
    ("group 4x6\n1,2\n# 5,2\n\n 5 , 8\n", "duplicate point 5,8"),
    ("group 4\n3\n0\n-1\n7\n", "duplicate point -1"),
    ("group 4\n3\n4\n0\n", "duplicate point 0"),
    ("group 2x2\n0,0\n1,1,1\n", "line 3: expected 2 coordinates, got 3"),
    ("group 2x2\n0,0\n1,1_0\n", "line 3: expected comma-separated integers, got '1,1_0'"),
    ("# c\n\nbox 2\n0\n", "expected a 'group' file, found 'box'"),
    ("\n# c\n", "missing 'group <spec>' or 'box <spec>' header"),
])
def test_reader_messages(text, message):
    with pytest.raises(SetFileError) as exc:
        point_set_from_file(text)
    assert str(exc.value) == message
    assert _outcome(reference_setfiles.point_set_from_file, text) == ("error", message)


def test_reader_reduces_coordinates_beyond_int64():
    big = 2**70 + 5
    ps = point_set_from_file(f"group 6x7\n{big},{-big}\n1,1\n")
    assert ps == PointSet.from_coords(GroupSpec([6, 7]), [[big % 6, -big % 7], [1, 1]])
