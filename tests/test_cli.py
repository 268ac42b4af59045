"""Command-line workflow: conversion, fitting, outputs, exit codes."""

import json

import numpy as np
import pytest

import riempoly as rp
import riempoly.cli
import riempoly.regress
from riempoly.cli import build_dataset, curve_table, main, observed_points, scatter_table
from riempoly.landmarks import parse_landmarks
from conftest import RAT_FIXTURE, procrustes_align, unit_tangent


@pytest.fixture
def small_kendall_csv(tmp_path, rng):
    """Noisy geodesic trend on four planar landmarks, ten observations."""
    space = rp.KendallShapeSpace(4, 2)
    base = space.from_landmarks(rng.standard_normal((4, 2)))
    u = unit_tangent(space, rng, base, 0.35)
    rows = ["id,time,x1,y1,x2,y2,x3,y3,x4,y4"]
    for i, t in enumerate(np.linspace(0.0, 1.0, 10)):
        q = space.exp(base, t * u + unit_tangent(space, rng, base, 0.01))
        pts = 40.0 * q.reshape(4, 2) + 10.0
        cells = [f"s{i}", repr(float(t))] + [repr(float(v)) for v in pts.reshape(-1)]
        rows.append(",".join(cells))
    path = tmp_path / "shapes.csv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return path


def run_cli(*argv):
    return main(list(argv))


class TestFitCommand:
    def test_fit_writes_reports(self, small_kendall_csv, tmp_path):
        out = tmp_path / "out"
        code = run_cli(
            "fit", "--manifold", "kendall", "--orders", "0,1",
            "--input", str(small_kendall_csv), "--out", str(out),
            "--steps", "60", "--max-iters", "300", "--tol", "1e-5",
            "--samples", "7",
        )
        assert code == 0
        payload = json.loads((out / "fit.json").read_text())
        assert set(payload["fits"]) == {"0", "1"}
        assert set(payload["config"]) == {"steps", "max_iters", "tol"}
        for fit in payload["fits"].values():
            assert 0.0 < fit["elapsed_seconds"] <= payload["elapsed_seconds"]
        fit1 = payload["fits"]["1"]
        assert fit1["r_squared"] > 0.99
        assert fit1["converged"]
        assert fit1["stop_reason"] == "tolerance"
        assert fit1["time_mapping"]["scale"] == 1.0
        curves = (out / "curves.csv").read_text().splitlines()
        assert curves[0].startswith("order,time,")
        assert len(curves) == 1 + 2 * 7
        residuals = (out / "residuals.csv").read_text().splitlines()
        assert residuals[0] == "order,id,time,distance"
        assert len(residuals) == 1 + 2 * 10
        assert (out / "plot_data.csv").exists()

    def test_repeated_order_written_once(self, small_kendall_csv, tmp_path):
        # --orders 1,1 fits order 1 once and reports it as --orders 1 does
        fits = []
        for name, orders in (("once", "1"), ("twice", "1,1")):
            out = tmp_path / name
            code = run_cli(
                "fit", "--manifold", "kendall", "--orders", orders,
                "--input", str(small_kendall_csv), "--out", str(out),
                "--steps", "60", "--max-iters", "200", "--tol", "1e-5",
            )
            assert code == 0
            payload = json.loads((out / "fit.json").read_text())
            assert payload["orders"] == [1]
            del payload["fits"]["1"]["elapsed_seconds"]
            fits.append(payload["fits"])
        assert fits[0] == fits[1]
        for name in ("curves.csv", "residuals.csv"):
            assert (tmp_path / "once" / name).read_bytes() == (tmp_path / "twice" / name).read_bytes()

    def test_missing_input_is_usage_error(self, tmp_path):
        code = run_cli("fit", "--input", str(tmp_path / "nope.csv"),
                       "--out", str(tmp_path / "o"))
        assert code == 1

    def test_malformed_input_exits_one(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("id,time,x1,y1\nr1,nan,0,0\n", encoding="utf-8")
        code = run_cli("fit", "--input", str(bad), "--out", str(tmp_path / "o"))
        assert code == 1

    def test_plot_data_is_the_top_converged_curve(self, small_kendall_csv, tmp_path):
        # plot_data.csv's curve is curves.csv's lines of the highest converged
        # order, after their first field, and its scatter is every observation
        out = tmp_path / "o"
        assert run_cli(
            "fit", "--manifold", "kendall", "--orders", "0,1",
            "--input", str(small_kendall_csv), "--out", str(out),
            "--steps", "60", "--max-iters", "300", "--tol", "1e-5", "--samples", "7",
        ) == 0
        curves = (out / "curves.csv").read_text().splitlines()[1:]
        plot = (out / "plot_data.csv").read_text().splitlines()
        assert plot[0] == "kind,time," + ",".join(f"c{i}" for i in range(1, 9))
        assert [line.split(",", 1)[1] for line in plot[1:8]] == \
            [line.split(",", 1)[1] for line in curves if line.startswith("1,")]
        assert all(line.startswith("curve,") for line in plot[1:8])
        assert all(line.startswith("observations,") for line in plot[8:])
        assert len(plot) == 1 + 7 + 10

    @pytest.mark.parametrize("flags, want", [
        (["--no-plot-data"], 0),
        (["--max-iters", "1", "--tol", "1e-15"], 2),
    ], ids=["no-plot-data", "no-order-converged"])
    def test_no_plot_data_unless_asked_and_converged(self, small_kendall_csv, tmp_path,
                                                     flags, want):
        # --no-plot-data writes none; nor does a run where no order converged
        out = tmp_path / "o"
        assert run_cli(
            "fit", "--manifold", "kendall", "--orders", "0,1",
            "--input", str(small_kendall_csv), "--out", str(out), "--steps", "60", *flags,
        ) == want
        assert (out / "curves.csv").exists() and (out / "residuals.csv").exists()
        assert not (out / "plot_data.csv").exists()

    def test_nonconvergence_exits_two(self, small_kendall_csv, tmp_path):
        code = run_cli(
            "fit", "--manifold", "kendall", "--orders", "1",
            "--input", str(small_kendall_csv), "--out", str(tmp_path / "o"),
            "--steps", "60", "--max-iters", "1", "--tol", "1e-15",
            "--no-plot-data",
        )
        assert code == 2
        payload = json.loads((tmp_path / "o" / "fit.json").read_text())
        assert payload["fits"]["1"]["stop_reason"] == "max_iters"

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_non_finite_tol_named(self, small_kendall_csv, tmp_path, capsys, tol):
        # exit 1 naming the value before any fit, not a run to the line
        # search with "tol": NaN in fit.json
        out = tmp_path / "o"
        assert run_cli("fit", "--input", str(small_kendall_csv), "--out", str(out),
                       "--tol", tol) == 1
        err = capsys.readouterr().err
        assert f"got tol={tol}" in err and "Traceback" not in err
        assert not out.exists()

    def test_sphere_fit_from_unit_vectors(self, tmp_path, rng):
        # one landmark with x1,y1,z1 columns is a point of S^2
        sphere = rp.Sphere(2)
        base = sphere.random_point(rng)
        u = unit_tangent(sphere, rng, base, 0.8)
        rows = ["id,time,x1,y1,z1"]
        for i, t in enumerate(np.linspace(0.0, 1.0, 8)):
            q = sphere.exp(base, t * u + unit_tangent(sphere, rng, base, 0.01))
            rows.append(",".join([f"s{i}", repr(float(t))] + [repr(float(v)) for v in q]))
        good = tmp_path / "sphere.csv"
        good.write_text("\n".join(rows) + "\n", encoding="utf-8")
        out = tmp_path / "o"
        code = run_cli("fit", "--manifold", "sphere", "--orders", "0,1",
                       "--input", str(good), "--out", str(out), "--steps", "40")
        assert code == 0
        payload = json.loads((out / "fit.json").read_text())
        assert payload["fits"]["1"]["manifold"] == "sphere(2)"
        assert payload["fits"]["1"]["r_squared"] > 0.99
        # a row that is not a unit vector is refused before any fit
        rows[3] = ",".join(rows[3].split(",")[:2] + ["0.5", "0.5", "0.5"])
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(rows) + "\n", encoding="utf-8")
        assert run_cli("fit", "--manifold", "sphere", "--input", str(bad),
                       "--out", str(tmp_path / "o2")) == 1
        assert not (tmp_path / "o2" / "fit.json").exists()

    @pytest.mark.parametrize("name", ["sphere", "so3"])
    def test_record_off_the_manifold_exits_one(self, name, tmp_path, rng, capsys):
        # record 3 is a sphere row of norm 1.1, or a rotation with its first
        # row negated, a reflection: exit 1, naming the record, before any fit
        space = rp.Sphere(2) if name == "sphere" else rp.RotationGroup()
        points = np.stack([space.random_point(rng) for _ in range(6)])
        points[3] = 1.1 * points[3] if name == "sphere" else points[3] * [[-1.0], [1.0], [1.0]]
        header = ["id", "time"] + [f"{a}{i}" for i in range(1, points[0].size // 3 + 1)
                                   for a in "xyz"]
        rows = [",".join(header)] + [
            ",".join([f"r{i}", str(i)] + [repr(v) for v in p.ravel().tolist()])
            for i, p in enumerate(points)]
        path = tmp_path / "off.csv"
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        assert run_cli("fit", "--manifold", name, "--input", str(path),
                       "--out", str(tmp_path / "o")) == 1
        assert f"record 3 (id 'r3') is off {space.name}:" in capsys.readouterr().err
        assert not (tmp_path / "o" / "fit.json").exists()

    def test_no_orders_rejected(self, small_kendall_csv, tmp_path):
        code = run_cli("fit", "--orders", ",", "--input", str(small_kendall_csv),
                       "--out", str(tmp_path / "o"))
        assert code == 1
        assert not (tmp_path / "o").exists()

    def test_missing_times_rejected(self, tmp_path):
        # a TPS file without AGE gives records with no time, which no fit takes
        tps = tmp_path / "in.tps"
        tps.write_text("LM=2\n0 0\n1 1\nID=a\nLM=2\n1 0\n0 1\nID=b\n",
                       encoding="utf-8")
        assert run_cli("fit", "--input", str(tps), "--out", str(tmp_path / "o")) == 1
        assert not (tmp_path / "o").exists()

    def test_single_sample_rejected_before_fitting(self, small_kendall_csv, tmp_path):
        # a curve needs two samples; the check must come before any report
        # file is written, not from the plot bundle after the fit
        out = tmp_path / "o"
        code = run_cli(
            "fit", "--manifold", "kendall", "--orders", "0,1",
            "--input", str(small_kendall_csv), "--out", str(out),
            "--steps", "30", "--samples", "1",
        )
        assert code == 1
        assert not (out / "fit.json").exists()

    def test_similarity_invariance_end_to_end(self, small_kendall_csv, tmp_path, rng):
        records = parse_landmarks(small_kendall_csv)
        theta = 0.7
        rot = np.array([[np.cos(theta), -np.sin(theta)],
                        [np.sin(theta), np.cos(theta)]])
        moved = tmp_path / "moved.csv"
        rows = ["id,time,x1,y1,x2,y2,x3,y3,x4,y4"]
        for rec in records:
            pts = 2.5 * (rec.landmarks @ rot.T) + np.array([-3.0, 11.0])
            rows.append(",".join(
                [rec.id, repr(rec.time)] + [repr(float(v)) for v in pts.reshape(-1)]
            ))
        moved.write_text("\n".join(rows) + "\n", encoding="utf-8")

        r2 = {}
        for name, path in (("orig", small_kendall_csv), ("moved", moved)):
            out = tmp_path / f"out_{name}"
            assert run_cli(
                "fit", "--manifold", "kendall", "--orders", "1",
                "--input", str(path), "--out", str(out),
                "--steps", "60", "--max-iters", "300", "--tol", "1e-5",
            ) == 0
            r2[name] = json.loads((out / "fit.json").read_text())["fits"]["1"]["r_squared"]
        assert r2["orig"] == pytest.approx(r2["moved"], abs=1e-6)


class TestReportsReuseTheFit:
    def test_one_parse_and_no_reintegration(self, tmp_path, monkeypatch):
        # every report file is drawn from the dataset and the trajectories
        # and residual logs the fit already built
        calls = {"parse": 0, "after_fit": 0, "logs_after_fit": 0}
        fitted = []

        def counting_parse(*args, **kwargs):
            calls["parse"] += 1
            return parse_landmarks(*args, **kwargs)

        def marking_fit_orders(*args, **kwargs):
            results = rp.fit_orders(*args, **kwargs)
            fitted.append(True)
            return results

        def counting_integrate(*args, **kwargs):
            if fitted:
                calls["after_fit"] += 1
            return rp.integrate_polynomial(*args, **kwargs)

        log_many = rp.KendallShapeSpace.log_many

        def counting_log_many(*args, **kwargs):
            if fitted:
                calls["logs_after_fit"] += 1
            return log_many(*args, **kwargs)

        monkeypatch.setattr(riempoly.cli, "parse_landmarks", counting_parse)
        monkeypatch.setattr(riempoly.cli, "fit_orders", marking_fit_orders)
        for module in (riempoly.cli, riempoly.regress):
            monkeypatch.setattr(module, "integrate_polynomial", counting_integrate)
        monkeypatch.setattr(rp.KendallShapeSpace, "log_many", counting_log_many)
        out = tmp_path / "out"
        code = run_cli(
            "fit", "--manifold", "kendall", "--orders", "0,1",
            "--input", str(RAT_FIXTURE), "--out", str(out),
            "--steps", "100", "--tol", "2e-6", "--samples", "11",
        )
        assert code == 0
        assert fitted
        assert (out / "plot_data.csv").exists()
        assert calls == {"parse": 1, "after_fit": 0, "logs_after_fit": 0}
        payload = json.loads((out / "fit.json").read_text())
        assert payload["fits"]["1"]["steps_per_unit_time"] == 100


class TestConvertTps:
    def test_tps_to_csv(self, tmp_path):
        tps = tmp_path / "in.tps"
        tps.write_text("LM=2\n0 0\n1 1\nID=a\nAGE=7\nLM=2\n1 0\n0 1\nID=b\nAGE=14\n",
                       encoding="utf-8")
        out = tmp_path / "out.csv"
        assert run_cli("convert-tps", "--input", str(tps), "--out", str(out)) == 0
        records = parse_landmarks(out)
        assert [r.id for r in records] == ["a", "b"]
        assert [r.time for r in records] == [7.0, 14.0]

    def test_ages_cycle_fills_missing_times(self, tmp_path):
        tps = tmp_path / "in.tps"
        tps.write_text("LM=2\n0 0\n1 1\nID=a\nLM=2\n1 0\n0 1\nID=b\n",
                       encoding="utf-8")
        out = tmp_path / "out.csv"
        assert run_cli("convert-tps", "--input", str(tps), "--out", str(out),
                       "--ages", "7,14") == 0
        assert [r.time for r in parse_landmarks(out)] == [7.0, 14.0]

    @pytest.mark.parametrize("row", ["0 0 0 1", "0"], ids=["4-D", "1-D"])
    def test_rows_the_csv_layout_cannot_carry(self, tmp_path, capsys, row):
        # landmarks of 4 or 1 numbers: exit 1 naming the dimension, no file,
        # while fit still takes the TPS file itself
        d = len(row.split())
        tps = tmp_path / "in.tps"
        tps.write_text("".join(f"LM=2\n{row}\n{' '.join([str(i)] * d)}\nID=r{i}\nAGE={i}\n"
                               for i in range(1, 4)), encoding="utf-8")
        out = tmp_path / "out.csv"
        assert run_cli("convert-tps", "--input", str(tps), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert f"2-D or 3-D landmarks, not {d}-D" in err and "Traceback" not in err
        assert not out.exists()
        assert run_cli("fit", "--manifold", "euclidean", "--orders", "0,1", "--steps", "10",
                       "--input", str(tps), "--out", str(tmp_path / "o")) == 0

    @pytest.mark.parametrize("ages", ["nan", "1,inf"])
    def test_non_finite_ages_named(self, tmp_path, capsys, ages):
        # a record without AGE must not take a non-finite time, and the
        # message names the --ages value, not a missing attribute
        tps = tmp_path / "in.tps"
        tps.write_text("LM=2\n0 0\n1 1\nID=a\nLM=2\n1 0\n0 1\nID=b\n", encoding="utf-8")
        out = tmp_path / "out.csv"
        assert run_cli("convert-tps", "--input", str(tps), "--out", str(out),
                       "--ages", ages) == 1
        err = capsys.readouterr().err
        assert f"--ages needs finite times, got '{ages}'" in err and "Traceback" not in err
        assert not out.exists()

    def test_missing_age_without_flag_fails(self, tmp_path):
        tps = tmp_path / "in.tps"
        tps.write_text("LM=2\n0 0\n1 1\nID=a\n", encoding="utf-8")
        assert run_cli("convert-tps", "--input", str(tps),
                       "--out", str(tmp_path / "o.csv")) == 1


class TestSimulate:
    def test_writes_requested_orders(self, tmp_path):
        out = tmp_path / "curves.csv"
        assert run_cli("simulate", "--order", "3", "--out", str(out),
                       "--steps", "50") == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "order,time,x,y,z"
        assert len(lines) == 1 + 3 * 51
        pts = np.array([[float(v) for v in line.split(",")[2:]]
                        for line in lines[1:]])
        assert np.abs(np.linalg.norm(pts, axis=1) - 1.0).max() < 1e-9

    def test_bad_order_rejected(self, tmp_path):
        assert run_cli("simulate", "--order", "0",
                       "--out", str(tmp_path / "c.csv")) == 1


class TestPlotBundle:
    def test_two_samples_are_endpoints(self, small_kendall_csv, rng):
        records = parse_landmarks(small_kendall_csv)
        manifold, data, _ = build_dataset("kendall", records)
        res = rp.fit_polynomial(
            manifold, data, rp.FitConfig(order=1, steps=60, max_iters=200, tol=1e-5)
        )
        curve = curve_table(res, 2)
        assert len(curve) == 2
        assert curve[0][0] == 0.0
        assert curve[1][0] == 1.0
        assert len(scatter_table(data, observed_points(res, data))) == data.size

    def test_order_zero_curve_is_constant(self, small_kendall_csv):
        records = parse_landmarks(small_kendall_csv)
        manifold, data, _ = build_dataset("kendall", records)
        res = rp.fit_polynomial(
            manifold, data, rp.FitConfig(order=0, steps=60, tol=1e-8)
        )
        rows = curve_table(res, 5)
        assert np.ptp(rows[:, 1:], axis=0).max() < 1e-12


class TestBuildDataset:
    def test_sphere_requires_unit_rows(self, rng):
        from riempoly.landmarks import LandmarkFileRecord

        records = [LandmarkFileRecord("a", 0.0, np.array([[1.0, 1.0, 1.0]]))]
        with pytest.raises(ValueError):
            build_dataset("sphere", records)

    def test_so3_requires_rotations(self, rng):
        from riempoly.landmarks import LandmarkFileRecord

        records = [LandmarkFileRecord("a", 0.0, np.ones((3, 3)))]
        with pytest.raises(ValueError):
            build_dataset("so3", records)

    def test_non_finite_times_rejected(self):
        from riempoly.landmarks import LandmarkFileRecord

        for bad in (np.nan, np.inf):
            records = [LandmarkFileRecord("a", 0.0, np.eye(2)),
                       LandmarkFileRecord("b", bad, np.eye(2))]
            with pytest.raises(ValueError, match="non-finite times"):
                build_dataset("euclidean", records)

    def test_degenerate_kendall_record_named(self, rng):
        from riempoly.landmarks import LandmarkFileRecord

        records = [LandmarkFileRecord(str(i), float(i), rng.standard_normal((4, 2)))
                   for i in range(3)]
        records[1] = LandmarkFileRecord("1", 1.0, np.ones((4, 2)))
        with pytest.raises(ValueError, match="record 1 is a degenerate"):
            build_dataset("kendall", records)

    @pytest.mark.parametrize("manifold, count, fault", [
        ("kendall", 0, "no records"),
        ("torus", 2, "unknown manifold 'torus'"),
    ], ids=["no_records", "unknown_manifold"])
    def test_dataset_guards(self, manifold, count, fault):
        from riempoly.landmarks import LandmarkFileRecord

        records = [LandmarkFileRecord(str(i), float(i), np.eye(2)) for i in range(count)]
        with pytest.raises(ValueError, match=fault):
            build_dataset(manifold, records)

    def test_so3_requires_nine_coordinates(self, rng):
        from riempoly.landmarks import LandmarkFileRecord

        records = [LandmarkFileRecord("a", 0.0, np.eye(2))]
        with pytest.raises(ValueError, match="nine coordinates"):
            build_dataset("so3", records)

    def test_so3_accepts_rotations(self, rng):
        from riempoly.landmarks import LandmarkFileRecord

        group = rp.RotationGroup()
        records = [
            LandmarkFileRecord(str(i), float(i), group.random_point(rng))
            for i in range(3)
        ]
        manifold, data, ids = build_dataset("so3", records)
        assert data.size == 3
        assert ids == ["0", "1", "2"]


class TestSimulateHigherOrders:
    def test_extends_seed_vectors_beyond_three(self, tmp_path):
        out = tmp_path / "c.csv"
        assert run_cli("simulate", "--order", "5", "--out", str(out),
                       "--steps", "20") == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 5 * 21


class TestNoiselessGeodesic:
    def test_order_one_near_perfect_fit(self, tmp_path, rng):
        space = rp.KendallShapeSpace(4, 2)
        base = space.from_landmarks(rng.standard_normal((4, 2)))
        u = unit_tangent(space, rng, base, 0.4)
        rows = ["id,time,x1,y1,x2,y2,x3,y3,x4,y4"]
        for i, t in enumerate(np.linspace(0.0, 1.0, 9)):
            pts = space.exp(base, t * u).reshape(4, 2)
            rows.append(",".join(
                [f"g{i}", repr(float(t))] + [repr(float(v)) for v in pts.reshape(-1)]
            ))
        path = tmp_path / "geodesic.csv"
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run_cli(
            "fit", "--manifold", "kendall", "--orders", "1",
            "--input", str(path), "--out", str(out),
            "--steps", "100", "--max-iters", "300", "--tol", "1e-7",
            "--no-plot-data",
        ) == 0
        payload = json.loads((out / "fit.json").read_text())
        assert payload["fits"]["1"]["r_squared"] > 0.999


class TestPlotAlignment:
    def test_scatter_aligned_onto_curve(self, small_kendall_csv, rng):
        records = parse_landmarks(small_kendall_csv)
        theta = 1.1
        rot = np.array([[np.cos(theta), -np.sin(theta)],
                        [np.sin(theta), np.cos(theta)]])

        def bundle_and_fit(recs):
            manifold, data, _ = build_dataset("kendall", recs)
            res = rp.fit_polynomial(
                manifold, data,
                rp.FitConfig(order=1, steps=60, max_iters=200, tol=1e-5),
            )
            return {"observations": scatter_table(data, observed_points(res, data))}, data, res

        def anchors(res, times):
            # the fitted curve at each observation's own node
            traj = res.trajectory
            return traj.points[traj.node_index((times - res.time_offset) / res.time_scale)]

        bundle, data, res = bundle_and_fit(records)
        for anchor, raw, row in zip(anchors(res, data.times), data.points,
                                    bundle["observations"]):
            aligned = np.array(row[1:])
            # display alignment only rotates: same shape, same norm
            assert abs(np.linalg.norm(aligned) - np.linalg.norm(raw)) < 1e-12
            space = rp.KendallShapeSpace(4, 2)
            assert space.dist(raw, aligned) < 1e-9
            # all observations are aligned at once, with the bits of aligning
            # each alone onto the fitted curve at its own time
            alone = procrustes_align(raw.reshape(4, 2), anchor.reshape(4, 2))
            assert np.array_equal(aligned, alone.reshape(-1))

        # the residual profile is unchanged when every input is rotated
        from riempoly.landmarks import LandmarkFileRecord

        rotated = [
            LandmarkFileRecord(r.id, r.time, r.landmarks @ rot.T)
            for r in records
        ]
        bundle_rot, _, res_rot = bundle_and_fit(rotated)

        def residuals(b, res):
            obs = np.array([row[1:] for row in b["observations"]])
            return np.linalg.norm(obs - anchors(res, data.times), axis=1)

        assert np.abs(residuals(bundle, res) - residuals(bundle_rot, res_rot)).max() < 1e-6
