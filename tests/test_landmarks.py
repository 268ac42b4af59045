"""Landmark file parsing, serialization, and error reporting."""

import numpy as np
import pytest

from riempoly.landmarks import (
    LandmarkFileRecord,
    LandmarkFormatError,
    parse_landmarks,
    write_landmarks_csv,
)


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


class TestWriter:
    def test_rejects_mixed_shapes(self, rng):
        records = [
            LandmarkFileRecord("a", 0.0, rng.standard_normal((3, 2))),
            LandmarkFileRecord("b", 1.0, rng.standard_normal((4, 2))),
        ]
        with pytest.raises(ValueError):
            write_landmarks_csv(records, "/tmp/never.csv")

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            write_landmarks_csv([], "/tmp/never.csv")


class TestBundledFixture:
    def test_rat_fixture_design(self):
        from pathlib import Path

        path = Path(__file__).resolve().parents[1] / "src" / "riempoly" / "data" \
            / "rat_calvaria_synthetic.csv"
        records = parse_landmarks(path)
        assert len(records) == 144
        assert {r.m for r in records} == {8}
        assert {r.d for r in records} == {2}
        ages = sorted({r.time for r in records})
        assert ages == [7.0, 14.0, 21.0, 30.0, 40.0, 60.0, 90.0, 150.0]
        assert len({r.id for r in records}) == 18
