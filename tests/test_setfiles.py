from __future__ import annotations

import pytest

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
