"""The command line in fresh processes: exit codes and bytes across hash seeds.

Every child runs `python -m riempoly` (or one short `-c` fit) from src/ with
warnings as errors, through conftest.run_riempoly.  Each command runs under
PYTHONHASHSEED 0 and 1, and both processes must exit 0 and write the same
bytes; the fits also keep their results' invariants at the sizes below.
"""

import csv
import io
import json

import numpy as np
import pytest

from conftest import (RAT_FIXTURE, rotation_curve_csv, run_riempoly, shapes_3d_csv, small_tps,
                      sphere_cubic_csv)

INPUTS = {"sphere.csv": sphere_cubic_csv, "so3.csv": rotation_curve_csv,
          "kendall3d.csv": shapes_3d_csv, "small.tps": small_tps}


def fit(path, manifold, orders, steps=50):
    return ("fit", "--manifold", manifold, "--orders", orders, "--steps", str(steps),
            "--input", path, "--out", "out")


COMMANDS = {
    "rat-kendall": fit(RAT_FIXTURE, "kendall", "0,1,2,3"),
    "rat-flat": fit(RAT_FIXTURE, "euclidean", "0,1,2,3"),
    "sphere-cubic": fit("sphere.csv", "sphere", "0,1,2,3"),
    "so3": fit("so3.csv", "so3", "0,1,2"),
    "kendall-3d": fit("kendall3d.csv", "kendall", "0,1,2"),
    "simulate": ("simulate", "--order", "3", "--out", "out.csv"),
    "convert-tps": ("convert-tps", "--input", "small.tps", "--out", "out.csv"),
}
WRITTEN = {"fit": {"out/fit.json", "out/curves.csv", "out/residuals.csv", "out/plot_data.csv"},
           "simulate": {"out.csv"}, "convert-tps": {"out.csv"}}

# the CLI offers no general metric: fit the rotation records under
# diag(1, 2, 3), whose logs shoot and whose reverse pass runs the batched node maps
GENERAL_METRIC_FIT = """
import json, sys
import numpy as np
import riempoly as rp
records = rp.parse_landmarks(sys.argv[1])
space = rp.RotationGroup(rp.MetricSpec(np.diag([1.0, 2.0, 3.0])))
points = space.project_point(np.stack([r.landmarks for r in records]))
data = rp.TimedDataset(space, [r.time for r in records], points)
results = rp.fit_orders(space, data, (0, 1, 2), rp.FitConfig(order=2, steps=50))
with open("params.bin", "wb") as params, open("nodes.bin", "wb") as nodes:
    for k, res in sorted(results.items()):
        for a in (res.params.gamma, res.params.vels, res.sse):
            params.write(np.asarray(a, dtype=float).tobytes())
        nodes.write(res.trajectory.points.tobytes())
with open("converged.json", "w") as f:
    json.dump({k: res.converged for k, res in results.items()}, f)
"""


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """run(seeds, *argv): one child per seed, each distinct call once per
    module.  An argument that names an entry of INPUTS is replaced by the
    path of that file."""
    root = tmp_path_factory.mktemp("processes")
    for name, make in INPUTS.items():
        (root / name).write_text(make(), encoding="utf-8")
    done = {}

    def run(seeds, *argv, code=None):
        for seed in seeds:
            if (seed, argv, code) not in done:
                args = [root / a if a in INPUTS else a for a in argv]
                done[seed, argv, code] = run_riempoly(root / str(len(done)), seed, *args,
                                                      code=code)
        return [done[seed, argv, code] for seed in seeds]

    return run


def without_wall_times(data):
    return b"".join(line for line in data.splitlines(True) if b'"elapsed_seconds"' not in line)


def rotation_gap(r):
    r = np.asarray(r, dtype=float).reshape(-1, 3, 3)
    return max(np.abs(np.swapaxes(r, -1, -2) @ r - np.eye(3)).max(),
               np.abs(np.linalg.det(r) - 1.0).max())


def fits_of(child):
    assert child.code == 0, child.stderr
    return json.loads(child.files["out/fit.json"])["fits"]


@pytest.mark.parametrize("name", COMMANDS)
def test_a_second_hash_seed_writes_the_same_bytes(run, name):
    first, again = run((0, 1), *COMMANDS[name])
    assert (first.code, again.code) == (0, 0), first.stderr + again.stderr
    assert set(first.files) == set(again.files) == WRITTEN[COMMANDS[name][0]]
    for path, data in first.files.items():
        assert data, path
        if path.endswith(".json"):    # fit.json apart from its wall times
            assert without_wall_times(data) == without_wall_times(again.files[path])
        else:
            assert data == again.files[path], path


def test_every_order_reports_the_order_zero_variance(run):
    # one descent: every order's variance is the order-zero fit's SSE, and
    # order 0 descends from the middle observation to R^2 = 0
    [child] = run((0,), *COMMANDS["rat-kendall"])
    fits = fits_of(child)
    assert list(fits) == ["0", "1", "2", "3"]
    for k, result in fits.items():
        assert result["frechet_variance"] == fits["0"]["sse"], k
    assert fits["0"]["r_squared"] == 0.0 and fits["0"]["iterations"] >= 1


def test_so3_curves_take_no_polar_factor(run):
    # every row of the curves, and every curve row of the plot data, is
    # still a rotation to 1e-12
    [child] = run((0,), *COMMANDS["so3"])
    assert child.code == 0, child.stderr
    for path in ("out/curves.csv", "out/plot_data.csv"):
        rows = [row for row in csv.DictReader(io.StringIO(child.files[path].decode()))
                if row.get("kind", "curve") == "curve"]
        points = [[float(row[f"c{i}"]) for i in range(1, 10)] for row in rows]
        assert points and rotation_gap(points) <= 1e-12, path


def test_general_metric_fits_converge_to_the_same_bytes(run):
    # every order converges, two processes write the same parameter and SSE
    # bytes, and every node is a rotation to 1e-12
    first, again = run((0, 1), "so3.csv", code=GENERAL_METRIC_FIT)
    assert (first.code, again.code) == (0, 0), first.stderr + again.stderr
    assert first.files == again.files
    assert json.loads(first.files["converged.json"]) == {"0": True, "1": True, "2": True}
    assert rotation_gap(np.frombuffer(first.files["nodes.bin"])) <= 1e-12


def test_flat_fits_land_in_one_iteration(run):
    # every observation time is a node and every step is the flat
    # polynomial's exact move, so 5 steps fit the curve of 50 steps; the
    # default recursion is its exact transpose, so with an exact gradient the
    # preconditioned unit step lands on the least-squares optimum; a fit
    # capped at that one iteration is converged there too
    [coarse], [fine] = (run((0,), *fit(RAT_FIXTURE, "euclidean", "0,1,2,3", steps))
                        for steps in (5, 50))
    [capped] = run((0,), *fit(RAT_FIXTURE, "euclidean", "0,1,2,3"), "--max-iters", "1")
    coarse, fine, capped = fits_of(coarse), fits_of(fine), fits_of(capped)
    assert list(coarse) == list(fine) == list(capped) == ["0", "1", "2", "3"]
    for k in fine:
        assert all(f[k]["converged"] and f[k]["iterations"] == 1
                   for f in (coarse, fine, capped)), k
        assert capped[k]["stop_reason"] == "tolerance", k
        a, b = (np.concatenate([[f[k]["params_original_units"]["gamma"]],
                                f[k]["params_original_units"]["vels"]], axis=None)
                for f in (coarse, fine))
        assert np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(b), k


def test_tps_file_fits_as_its_converted_csv(run, tmp_path):
    [converted] = run((0,), *COMMANDS["convert-tps"])
    assert converted.code == 0, converted.stderr
    (tmp_path / "small.csv").write_bytes(converted.files["out.csv"])
    [tps], [table] = (run((0,), "fit", "--orders", "0,1,2", "--steps", "50",
                          "--input", path, "--out", "out")
                      for path in ("small.tps", tmp_path / "small.csv"))
    assert (tps.code, table.code) == (0, 0), tps.stderr + table.stderr
    for name in ("curves.csv", "residuals.csv", "plot_data.csv"):
        assert tps.files[f"out/{name}"] == table.files[f"out/{name}"], name


RAT_LINES = RAT_FIXTURE.read_text(encoding="utf-8").splitlines()


@pytest.mark.parametrize("command, name, text, message", [
    ("convert-tps", "comma.tps", "LM=1\n0 0\nAGE=1\nID=a,b\n", "comma.tps:4: "),
    ("convert-tps", "nan.tps", "LM=1\n0 0\nID=a\nAGE=nan\n", "nan.tps:4: "),
    ("fit", "bad.csv", "\n".join(RAT_LINES[:-1] + [RAT_LINES[-1].rsplit(",", 1)[0] + ",abc\n"]),
     f"bad.csv:{len(RAT_LINES)}: non-numeric field"),
], ids=["comma-in-id", "nan-age", "non-numeric-cell"])
def test_bad_line_exits_one_naming_it(run, tmp_path, command, name, text, message):
    (tmp_path / name).write_text(text, encoding="utf-8")
    [child] = run((0,), command, "--input", tmp_path / name, "--out", "out")
    assert child.code == 1, child.stderr
    assert message in child.stderr and "Traceback" not in child.stderr
