"""Landmark file parsing, serialization, and error reporting."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from riempoly.landmarks import (
    LandmarkFileRecord,
    LandmarkFormatError,
    csv_lines,
    parse_landmarks,
    write_landmarks_csv,
    write_table,
)
from conftest import RAT_FIXTURE

ROOT = Path(__file__).resolve().parents[1]


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestCsv:
    def test_single_record(self, tmp_path):
        path = write(tmp_path, "one.csv",
                     "id,time,x1,y1,x2,y2,x3,y3\nr1,7.0,0,0,1,0,0,1\n")
        records = parse_landmarks(path)
        assert len(records) == 1
        rec = records[0]
        assert rec.id == "r1"
        assert rec.time == 7.0
        assert rec.m == 3 and rec.d == 2
        assert np.array_equal(rec.landmarks,
                              np.array([[0.0, 0], [1.0, 0], [0.0, 1]]))

    def test_three_dimensional_header(self, tmp_path):
        path = write(tmp_path, "three.csv",
                     "id,time,x1,y1,z1,x2,y2,z2\na,1.0,0,0,0,1,1,1\n")
        assert parse_landmarks(path)[0].d == 3

    def test_roundtrip_bit_equal(self, tmp_path, rng):
        records = [
            LandmarkFileRecord(id=f"s{i}", time=float(i) * 0.3 + 7.0,
                               landmarks=rng.standard_normal((4, 2)))
            for i in range(5)
        ]
        path = tmp_path / "round.csv"
        write_landmarks_csv(records, path)
        back = parse_landmarks(path)
        for a, b in zip(records, back):
            assert a.id == b.id
            assert a.time == b.time
            assert np.array_equal(a.landmarks, b.landmarks)
        # serialize again: identical bytes
        path2 = tmp_path / "round2.csv"
        write_landmarks_csv(back, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_bad_header(self, tmp_path):
        path = write(tmp_path, "bad.csv", "a,b,c\n1,2,3\n")
        with pytest.raises(LandmarkFormatError, match=":1:"):
            parse_landmarks(path)

    @pytest.mark.parametrize("coords", [
        "x1,y1,y2,x2",          # swapped axes
        "x1,y1,x2,z2",          # z in place of y
        "x1,y1,x3,y3",          # skipped landmark number
        "x1,y1,z1,x2,z2,y2",    # swapped axes in 3-D
        "x,y,x,y",              # unnumbered
    ])
    def test_coordinate_columns_must_be_in_order(self, tmp_path, coords):
        n = coords.count(",") + 1
        path = write(tmp_path, "bad.csv",
                     f"id,time,{coords}\nr1,1.0,{','.join(['0'] * n)}\n")
        with pytest.raises(LandmarkFormatError, match=":1:.*in order"):
            parse_landmarks(path)

    def test_wrong_field_count_reports_line(self, tmp_path):
        path = write(tmp_path, "bad.csv",
                     "id,time,x1,y1\nr1,1.0,0,0\nr2,2.0,0\n")
        with pytest.raises(LandmarkFormatError, match=":3:"):
            parse_landmarks(path)

    def test_non_numeric_field(self, tmp_path):
        path = write(tmp_path, "bad.csv", "id,time,x1,y1\nr1,abc,0,0\n")
        with pytest.raises(LandmarkFormatError, match=":2:"):
            parse_landmarks(path)

    GOOD = "r1,1.0,0,0\n"

    @pytest.mark.parametrize("body, line, fault", [
        # one fault on a later line names that line; blank lines count
        (GOOD + "\n" + GOOD + "r3,3.0,0,zero\n", 5, "non-numeric"),
        (GOOD + "\n" + GOOD + "r3,3.0,0,inf\n", 5, "non-finite"),
        (GOOD + "r2,nan,0,0\n" + GOOD, 3, "non-finite"),
        # two faults: the first line in the file is named, whatever its fault
        (GOOD + "r2,2.0,0,nan\nr3,3.0,0,abc\n", 3, "non-finite"),
        (GOOD + "r2,2.0,0,abc\nr3,3.0,0,nan\n", 3, "non-numeric"),
        (GOOD + "r2,2.0,inf,0\nr3,3.0,0\n", 3, "non-finite"),
        (GOOD + "r2,2.0,0\nr3,3.0,inf,0\n", 3, "expected 4 fields"),
    ])
    def test_first_bad_line_is_named(self, tmp_path, body, line, fault):
        path = write(tmp_path, "bad.csv", "id,time,x1,y1\n" + body)
        with pytest.raises(LandmarkFormatError, match=f":{line}: {fault}"):
            parse_landmarks(path)

    @pytest.mark.parametrize("text, fault", [
        ("", ":1: empty file"),
        ("id,time\nr1,1.0\n", ":1: no coordinate columns"),
        ("id,time,x1,y1,z1,x2\nr1,1.0,0,0,0,0\n", ":1: inconsistent coordinate columns"),
        ("id,time,x1,y1\n\n", ": no records"),
    ], ids=["empty", "no_coordinates", "partial_landmark", "no_rows"])
    def test_header_faults_are_named(self, tmp_path, text, fault):
        path = write(tmp_path, "bad.csv", text)
        with pytest.raises(LandmarkFormatError, match=fault):
            parse_landmarks(path)

    def test_unknown_format_rejected(self, tmp_path):
        path = write(tmp_path, "one.csv", "id,time,x1,y1\nr1,1.0,0,0\n")
        with pytest.raises(ValueError, match="unknown landmark format 'xml'"):
            parse_landmarks(path, fmt="xml")

    def test_padded_cells_parse_as_before(self, tmp_path):
        path = write(tmp_path, "pad.csv",
                     "id,time,x1,y1\n r1 , 7.5 ,\t-0.25 , 1e-3\t\n\nr2,8,2,3\n")
        records = parse_landmarks(path)
        assert [r.id for r in records] == ["r1", "r2"]
        assert [r.time for r in records] == [7.5, 8.0]
        assert np.array_equal(records[0].landmarks, [[-0.25, 1e-3]])
        assert np.array_equal(records[1].landmarks, [[2.0, 3.0]])


class TestTps:
    def test_block_matches_csv_equivalent(self, tmp_path):
        csv_path = write(tmp_path, "lm.csv",
                         "id,time,x1,y1,x2,y2,x3,y3\nr1,7.0,0,0,1,0,0,1\n")
        tps_path = write(tmp_path, "lm.tps",
                         "LM=3\n0 0\n1 0\n0 1\nID=r1\nAGE=7.0\n")
        a = parse_landmarks(csv_path)[0]
        b = parse_landmarks(tps_path)[0]
        assert a.id == b.id and a.time == b.time
        assert np.array_equal(a.landmarks, b.landmarks)

    def test_multiple_blocks_and_ignored_keys(self, tmp_path):
        text = (
            "LM=2\n0 0\n1 1\nIMAGE=a.jpg\nID=x\nSCALE=0.1\nTIME=1\n"
            "LM=2\n2 2\n3 3\nID=y\nAGE=2\n"
        )
        records = parse_landmarks(write(tmp_path, "two.tps", text))
        assert [r.id for r in records] == ["x", "y"]
        assert [r.time for r in records] == [1.0, 2.0]

    def test_missing_age_yields_nan(self, tmp_path):
        records = parse_landmarks(write(tmp_path, "na.tps", "LM=2\n0 0\n1 1\nID=x\n"))
        assert np.isnan(records[0].time)

    def test_count_mismatch_reports_line(self, tmp_path):
        path = write(tmp_path, "bad.tps", "LM=3\n0 0\n1 1\nID=x\n")
        with pytest.raises(LandmarkFormatError, match=":1:.*LM=3"):
            parse_landmarks(path)

    def test_inconsistent_blocks_rejected(self, tmp_path):
        text = "LM=2\n0 0\n1 1\nID=a\nLM=3\n0 0\n1 1\n2 2\nID=b\n"
        with pytest.raises(LandmarkFormatError, match="differs"):
            parse_landmarks(write(tmp_path, "mix.tps", text))

    def test_bad_coordinates_report_line(self, tmp_path):
        path = write(tmp_path, "bad.tps", "LM=2\n0 zero\n1 1\nID=a\n")
        with pytest.raises(LandmarkFormatError, match=":2:"):
            parse_landmarks(path)

    def test_garbage_prefix_rejected(self, tmp_path):
        path = write(tmp_path, "bad.tps", "hello world\nLM=2\n0 0\n1 1\n")
        with pytest.raises(LandmarkFormatError, match=":1:"):
            parse_landmarks(path)

    # Each case's text and what the reader returns: its records as (id, time,
    # landmarks), time None where the file gives none, or its error as
    # (line, message), line None where the message names no line.
    CASES = {
        "key line inside the coordinates": (
            "LM=3\n0 0\nID=a\n1 1\n2 2\n",
            (1, "block declares LM=3 but has 1 coordinate lines")),
        "LM line inside the coordinates": (
            "LM=3\n0 0\n1 1\nLM=2\n0 0\n1 1\n",
            (1, "block declares LM=3 but has 2 coordinate lines")),
        "coordinates end with the file": (
            "LM=3\n0 0\n1 1\n",
            (1, "block declares LM=3 but has 2 coordinate lines")),
        "extra row after a full block": (
            "LM=2\n0 0\n1 1\n2 2\nID=a\n",
            (4, "expected 'LM=' block, got '2 2'")),
        "extra row after the attributes": (
            "LM=2\n0 0\n1 1\nID=a\nAGE=3\n2 2\n",
            (6, "expected 'LM=' block, got '2 2'")),
        "text among the attributes": (
            "LM=1\n0 0\nID=a\nhello\n",
            (4, "expected 'LM=' block, got 'hello'")),
        "key line before the first block": (
            "ID=a\nLM=2\n0 0\n1 1\n",
            (1, "expected 'LM=' block, got 'ID=a'")),
        "bad AGE value": (
            "LM=2\n0 0\n1 1\nID=a\nAGE=old\n",
            (5, "bad AGE value")),
        "empty TIME value": (
            "LM=1\n0 0\nTIME=\n",
            (3, "bad TIME value")),
        # float reads these, but a time must be finite
        "AGE=nan": (
            "LM=1\n0 0\nID=a\nAGE=nan\n",
            (4, "bad AGE value")),
        "AGE=inf": (
            "LM=1\n0 0\nAGE=inf\n",
            (3, "bad AGE value")),
        "TIME=NaN after a good AGE": (
            "LM=1\n0 0\nAGE=3\nTIME=NaN\n",
            (4, "bad TIME value")),
        "TIME=-Infinity": (
            "LM=1\n0 0\nTIME=-Infinity\n",
            (3, "bad TIME value")),
        # every CSV file that carries ids would read the comma as a field break
        "ID with a comma": (
            "LM=1\n0 0\nAGE=1\nID=a,b\n",
            (4, "ID 'a,b' holds a comma, which the CSV layout cannot carry")),
        "bad coordinates": (
            "LM=2\n0 zero\n1 1\n",
            (2, "bad coordinates (could not convert string to float: 'zero')")),
        "bad landmark count": (
            "LM=two\n0 0\n",
            (1, "bad landmark count 'LM=two'")),
        # a count below 1 is a bad count at its line
        "LM=0": (
            "LM=0\nID=a\n",
            (1, "bad landmark count 'LM=0'")),
        "LM=-1": (
            "LM=-1\n0 0\n",
            (1, "bad landmark count 'LM=-1'")),
        "blank lines anywhere": (
            "\n  \nLM=2\n\n0 0\n \n1 1\n\nID=a\n\nAGE=3\n\n\nLM=2\n2 2\n\n3 3\n\n",
            [("a", 3.0, [[0, 0], [1, 1]]), ("1", None, [[2, 2], [3, 3]])]),
        "blank lines count in line numbers": (
            "\nLM=3\n\n0 0\n\n1 1\nID=a\n",
            (2, "block declares LM=3 but has 2 coordinate lines")),
        "AGE then TIME": (
            "LM=1\n0 0\nAGE=3\nTIME=4\nLM=1\n1 1\nTIME=5\nAGE=6\n",
            [("0", 4.0, [[0, 0]]), ("1", 6.0, [[1, 1]])]),
        "repeated ID": (
            "LM=1\n0 0\nID=a\nID=b\n",
            [("b", None, [[0, 0]])]),
        "block without an ID": (
            "LM=1\n0 0\nID=a\nLM=1\n1 1\nAGE=2\nLM=1\n2 2\nID=c\n",
            [("a", None, [[0, 0]]), ("1", 2.0, [[1, 1]]), ("c", None, [[2, 2]])]),
        "other keys ignored": (
            "LM=1\n0 0\nIMAGE=x.jpg\nSCALE=0.1\nID=\n",
            [("", None, [[0, 0]])]),
        "lower-case keys": (
            "lm=1\n5 6\nid=x\nage=2\n",
            [("x", 2.0, [[5, 6]])]),
        "padded keys and values": (
            "  LM = 2 \n 0   0 \n1\t1\n ID = a b \n AGE =  7 \n",
            [("a b", 7.0, [[0, 0], [1, 1]])]),
        "rows of four numbers": (
            "LM=2\n0 0 0 1\n1 1 0 0\nID=w\nAGE=1\n",
            [("w", 1.0, [[0, 0, 0, 1], [1, 1, 0, 0]])]),
        "empty file": ("", (None, "no records")),
        "blank file": ("\n \n", (None, "no records")),
        "ragged rows": (
            "LM=2\n0 0\n1 1 1\nID=a\n",
            (1, "ragged coordinate rows")),
        "block with more landmarks": (
            "LM=2\n0 0\n1 1\nID=a\nLM=3\n0 0\n1 1\n2 2\nID=b\n",
            (5, "block shape (3, 2) differs from (2, 2)")),
        "block of another dimension": (
            "LM=2\n0 0\n1 1\nLM=2\n0 0 0\n1 1 1\n",
            (4, "block shape (2, 3) differs from (2, 2)")),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_reader_table(self, tmp_path, case):
        text, want = self.CASES[case]
        path = write(tmp_path, "case.tps", text)
        if isinstance(want, tuple):
            line, message = want
            where = f"{path}:{line}:" if line is not None else f"{path}:"
            with pytest.raises(LandmarkFormatError) as info:
                parse_landmarks(path)
            assert str(info.value) == f"{where} {message}"
        else:
            got = [(r.id, None if np.isnan(r.time) else r.time, r.landmarks.tolist())
                   for r in parse_landmarks(path)]
            assert got == want


class TestCsvLines:
    def test_matches_repr_of_every_float(self):
        # repeated values, both zeros, the least subnormal, and the values
        # where repr switches between fixed and exponent notation
        table = np.array([
            [-0.0, 0.0, 5e-324, 1e-05, 1e16],
            [0.0, -0.0, 1e16, 1e-05, 0.1 + 0.2],
            [1e-4, 1e15, 123456789.125, -5e-324, 0.1 + 0.2],
        ])
        [got] = csv_lines((["a", "b,c", ""], table))
        want = [prefix + "," + ",".join(repr(float(v)) for v in row)
                for prefix, row in zip(["a", "b,c", ""], table)]
        assert got == want
        assert got[0] == "a,-0.0,0.0,5e-324,1e-05,1e+16"

    def test_random_table_re_parses_to_the_same_doubles(self, rng):
        table = rng.standard_normal((20, 6)) * 10.0 ** rng.integers(-30, 30, (20, 6))
        table[::3] = table[0]
        [lines] = csv_lines((["p"] * 20, table))
        back = np.array([[float(c) for c in line.split(",")[1:]] for line in lines])
        assert back.tobytes() == table.tobytes()

    def test_files_of_one_call_share_values_and_keep_their_bytes(self, tmp_path, rng):
        # tables that share values, both zeros, the least subnormal and the
        # non-finite ones: one call writes what one call per file writes
        shared = np.concatenate([[-0.0, 0.0, 5e-324, np.inf, -np.inf, np.nan, 0.1 + 0.2],
                                 rng.standard_normal(2)])
        files = []
        for name, rows, cols in (("a", 2, 5), ("b", 5, 2), ("c", 10, 1)):
            table = rng.permutation(np.append(shared, rng.standard_normal())).reshape(rows, cols)
            files.append((name, ["id"] + [f"v{j}" for j in range(cols)],
                          [f"{name}{i}" for i in range(rows)], table))
        write_table(*[(tmp_path / f"{name}-shared.csv", *rest) for name, *rest in files])
        for name, header, prefixes, table in files:
            write_table((tmp_path / f"{name}-alone.csv", header, prefixes, table))
            data = (tmp_path / f"{name}-shared.csv").read_bytes()
            assert data == (tmp_path / f"{name}-alone.csv").read_bytes()
            assert data.decode().splitlines()[1:] == [
                prefix + "," + ",".join(repr(float(v)) for v in row)
                for prefix, row in zip(prefixes, table)]


class TestWriter:
    def test_rejects_mixed_shapes(self, rng):
        records = [
            LandmarkFileRecord("a", 0.0, rng.standard_normal((3, 2))),
            LandmarkFileRecord("b", 1.0, rng.standard_normal((4, 2))),
        ]
        with pytest.raises(ValueError):
            write_landmarks_csv(records, "/tmp/never.csv")

    def test_rejects_an_id_with_a_comma(self, tmp_path):
        records = [LandmarkFileRecord("a", 0.0, np.zeros((3, 2))),
                   LandmarkFileRecord("b,c", 1.0, np.zeros((3, 2)))]
        path = tmp_path / "never.csv"
        with pytest.raises(ValueError, match="'b,c' holds a comma"):
            write_landmarks_csv(records, path)
        assert not path.exists()

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            write_landmarks_csv([], "/tmp/never.csv")

    @pytest.mark.parametrize("d", [1, 4])
    def test_rejects_dimensions_the_layout_cannot_name(self, tmp_path, d):
        # the columns name x, y and z only: 1-D would read back as a bad
        # header and 4-D has no fourth axis
        records = [LandmarkFileRecord("a", 0.0, np.zeros((3, d)))]
        path = tmp_path / "never.csv"
        with pytest.raises(ValueError, match=f"2-D or 3-D landmarks, not {d}-D"):
            write_landmarks_csv(records, path)
        assert not path.exists()


class TestBundledFixture:
    def test_rat_fixture_design(self):
        records = parse_landmarks(RAT_FIXTURE)
        assert len(records) == 144
        assert {r.m for r in records} == {8}
        assert {r.d for r in records} == {2}
        ages = sorted({r.time for r in records})
        assert ages == [7.0, 14.0, 21.0, 30.0, 40.0, 60.0, 90.0, 150.0]
        assert len({r.id for r in records}) == 18

    def test_written_back_byte_for_byte(self, tmp_path):
        path = tmp_path / "back.csv"
        write_landmarks_csv(parse_landmarks(RAT_FIXTURE), path)
        assert path.read_bytes() == RAT_FIXTURE.read_bytes()

    def test_regenerated_by_its_script(self):
        # scripts/make_rat_fixture.py rebuilds the file's ids and times
        # exactly and its landmarks in all but the last bits (relative gaps
        # up to ~4e-15): the file's provenance, checked without rewriting it
        spec = importlib.util.spec_from_file_location(
            "make_rat_fixture", ROOT / "scripts" / "make_rat_fixture.py")
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        made, committed = script.make_records(), parse_landmarks(RAT_FIXTURE)
        assert [(r.id, r.time) for r in made] == [(r.id, r.time) for r in committed]
        a = np.array([r.landmarks for r in made])
        b = np.array([r.landmarks for r in committed])
        assert np.all(np.abs(a - b) <= 1e-13 * np.abs(b))
