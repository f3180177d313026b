import csv
import io

import numpy as np
import pytest

from fslm import io as fio


def reference_cell(v):
    if isinstance(v, str):
        return v
    if isinstance(v, (np.bool_, np.integer)):
        return int(v)
    return fio.fmt(v)


def reference_csv(header, *columns):
    """The table as a csv.writer loop over fio.fmt-formatted floats writes it."""
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow(header)
    for row in zip(*columns):
        writer.writerow([reference_cell(v) for v in row])
    return out.getvalue().encode()


def test_write_table_matches_csv_writer_on_every_column_kind(tmp_path):
    columns = (
        np.array([0, -3, 2**40]),
        np.array([True, False, True]),
        np.array([-0.0, np.nan, 1e-300]),
        np.array([0.1, -np.inf, 1 / 3]),
        np.array(["ml", "normal-kernel", "x"]),
    )
    header = ["int", "bool", "float", "more", "name"]
    fio.write_table(tmp_path / "t.csv", header, *columns)
    assert (tmp_path / "t.csv").read_bytes() == reference_csv(header, *columns)
    assert (tmp_path / "t.csv").read_bytes().splitlines()[1] == b"0,1,-0,0.10000000000000001,ml"


def test_write_table_zero_rows_writes_the_header(tmp_path):
    fio.write_table(tmp_path / "t.csv", ["i", "j", "w"],
                    np.array([], dtype=int), np.array([], dtype=int), np.array([]))
    assert (tmp_path / "t.csv").read_bytes() == b"i,j,w\r\n"
    assert (tmp_path / "t.csv").read_bytes() == reference_csv(["i", "j", "w"], [], [], [])


def test_write_table_bytes_are_17_digit_rows(tmp_path):
    floats, ints, flags = [-0.0, 5e-324, 1e308, 0.1], [7, -1, 0, 2**53 + 1], [0, 1, 1, 0]
    fio.write_table(tmp_path / "t.csv", ["x", "i", "flag"],
                    np.array(floats), np.array(ints), np.array(flags, dtype=bool))
    rows = [f"{format(x, '.17g')},{i},{b}" for x, i, b in zip(floats, ints, flags)]
    assert rows[:3] == ["-0,7,0", "4.9406564584124654e-324,-1,1", "1e+308,0,1"]
    want = "\r\n".join(["x,i,flag", *rows]) + "\r\n"
    assert (tmp_path / "t.csv").read_bytes() == want.encode()
    with pytest.raises(ValueError):
        fio.write_table(tmp_path / "short.csv", ["a", "b"], np.arange(2), np.arange(3.0))
    assert not (tmp_path / "short.csv").exists()


def test_read_weights_csv_refuses_repeated_pair(tmp_path):
    # a later triplet would otherwise silently replace the earlier one
    path = tmp_path / "w.csv"
    path.write_text("i,j,w\n0,1,0.5\n1,0,1\n0,1,5\n")
    with pytest.raises(ValueError, match=r"w\.csv: an \(i, j\) pair is given more than once"):
        fio.read_weights_csv(path, n=2)
