import numpy as np
import pytest

from blockdict import read_matrix_text, write_matrix_text


def test_round_trip_exact(tmp_path):
    rng = np.random.default_rng(3)
    M = rng.standard_normal((7, 5))
    path = tmp_path / "m.txt"
    write_matrix_text(path, M)
    assert np.array_equal(read_matrix_text(path), M)


def test_vector_written_as_column(tmp_path):
    path = tmp_path / "v.txt"
    write_matrix_text(path, np.array([1.0, 2.0, 3.0]))
    out = read_matrix_text(path)
    assert out.shape == (3, 1)


def test_format_is_plain_text(tmp_path):
    path = tmp_path / "m.txt"
    write_matrix_text(path, np.array([[1.5, -2.0], [0.0, 3.25]]))
    lines = path.read_text().splitlines()
    assert lines[0] == "2 2"
    assert [float(v) for v in lines[1].split()] == [1.5, -2.0]


def test_bad_header(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("2\n1 2\n")
    with pytest.raises(ValueError):
        read_matrix_text(path)


@pytest.mark.parametrize("header, message", [
    ("2 x", "header must hold two integers"),
    ("2.0 2", "header must hold two integers"),
    ("0 2", "dimensions must be positive, got 0x2"),
    ("2 -1", "dimensions must be positive, got 2x-1"),
])
def test_header_values_checked(tmp_path, header, message):
    path = tmp_path / "m.txt"
    path.write_text(f"{header}\n1 2\n3 4\n")
    with pytest.raises(ValueError, match=message):
        read_matrix_text(path)


@pytest.mark.parametrize("shape", [(), (2, 2, 2)])
def test_non_matrix_not_written(tmp_path, shape):
    path = tmp_path / "m.txt"
    with pytest.raises(ValueError, match=f"expected a 2-D matrix, got ndim={len(shape)}"):
        write_matrix_text(path, np.ones(shape))
    assert not path.exists()


def test_wrong_value_count(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("2 2\n1 2\n3\n")
    with pytest.raises(ValueError):
        read_matrix_text(path)


@pytest.mark.parametrize("text, message", [
    ("3 2\n1 2\n3\n5 6\n", "row 2 has 1 values, expected 2"),
    ("3 2\n1 2 9\n3 4\n5 6\n", "row 1 has 3 values, expected 2"),
    ("3 2\n1 2\n3 4\n", "row 3 has 0 values, expected 2"),
    ("3 2\n1 2\n3 4", "row 3 has 0 values, expected 2"),
    ("3 2\n1 2\n3 x\n5 6\n", "could not convert string to float: 'x'"),
    # rows are read in order: an earlier row's token before a later row's count or stray data
    ("3 2\n1 y\n3\n5 6\n", "could not convert string to float: 'y'"),
    ("2 2\n1 2\n3 z\n5 6\n", "could not convert string to float: 'z'"),
    ("2 2\n1 2\n3 4\n5\n", "data past the declared 2 rows"),
])
def test_row_errors_name_the_first_fault(tmp_path, text, message):
    path = tmp_path / "m.txt"
    path.write_text(text)
    with pytest.raises(ValueError) as err:
        read_matrix_text(path)
    prefix = "" if message.startswith("could not") else f"{path}: "
    assert str(err.value) == prefix + message


@pytest.mark.parametrize("text, expected", [
    ("2 2\r\n1 2\r\n3 4\r\n", [[1.0, 2.0], [3.0, 4.0]]),
    ("1 3\n1_0 -2.5e1 .5\n", [[10.0, -25.0, 0.5]]),
    ("2 1\n\t7  \n  8\n \n", [[7.0], [8.0]]),
])
def test_crlf_underscores_and_blanks_accepted(tmp_path, text, expected):
    path = tmp_path / "m.txt"
    path.write_bytes(text.encode())
    out = read_matrix_text(path)
    assert out.dtype == float and out.tolist() == expected


def test_non_finite_rejected(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("1 2\n1 nan\n")
    with pytest.raises(ValueError):
        read_matrix_text(path)
    with pytest.raises(ValueError):
        write_matrix_text(path, np.array([[np.inf]]))


def test_rows_past_the_header_count_rejected(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("2 2\n1 2\n3 4\n5 6\n")
    with pytest.raises(ValueError, match="past the declared 2 rows"):
        read_matrix_text(path)


def test_trailing_blank_line_accepted(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("2 2\n1 2\n3 4\n\n")
    assert np.array_equal(read_matrix_text(path), [[1.0, 2.0], [3.0, 4.0]])


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
def test_empty_matrix_not_written(tmp_path, shape):
    path = tmp_path / "m.txt"
    with pytest.raises(ValueError, match="dimensions must be positive"):
        write_matrix_text(path, np.zeros(shape))
    assert not path.exists()
