"""Command-line front end: dataset ingestion, fitting, and report files.

The input is parsed once, its records are stacked once into one array, and
every Kendall record is standardized in one batched call.  run_regression
writes every report in one pass: each order's curve is sampled once, into
curves.csv and, for the highest converged order, plot_data.csv.  Every CSV
file is one float table written by landmarks.write_table in Python's
shortest round-trip repr, so the files re-parse to the same doubles; the
report's three tables go to one write_table call, which formats each
distinct value once for all of them.

Exit codes: 0 on success, 1 on usage or file errors, 2 when any requested
fit stopped before reaching its convergence tolerance.
"""

from __future__ import annotations

import json
import time as _time
from dataclasses import replace
from pathlib import Path

import click
import numpy as np

from .geometry import Euclidean, GeometryError
from .kendall import KendallShapeSpace, _align_many, _preshapes
from .landmarks import (
    LandmarkFormatError,
    parse_landmarks,
    write_landmarks_csv,
    write_table,
)
from .polyflow import PolynomialState, integrate_polynomial, sample_curve, time_grid
from .regress import FitConfig, FitResult, TimedDataset, fit_orders
from .so3 import MetricSpec, RotationGroup
from .sphere import Sphere

MANIFOLD_CHOICES = ("kendall", "euclidean", "sphere", "so3")


def build_dataset(manifold_name: str, records: list):
    """Turn parsed landmark records into a manifold and a timed dataset."""
    if not records:
        raise ValueError("no records")
    m, d = records[0].m, records[0].d
    times = np.array([r.time for r in records], dtype=float)
    if not np.all(np.isfinite(times)):
        raise ValueError("records carry non-finite times (missing AGE in TPS input?)")
    stack = np.stack([r.landmarks for r in records])

    if manifold_name == "kendall":
        manifold = KendallShapeSpace(m, d)
        stack = _preshapes(stack)[0]
    elif manifold_name == "euclidean":
        manifold = Euclidean(m * d)
    elif manifold_name == "sphere":
        manifold = Sphere(m * d - 1)
    elif manifold_name == "so3":
        if m * d != 9:
            raise ValueError("so3 data needs nine coordinates per record")
        manifold = RotationGroup(MetricSpec(np.eye(3)))
    else:
        raise ValueError(f"unknown manifold {manifold_name!r}")
    points = stack.reshape((len(records),) + manifold.point_shape)
    if manifold_name in ("sphere", "so3"):
        # records must lie on the manifold to 1e-6; project_point cleans them
        drift = manifold.point_residual(points)
        i = int(np.argmax(~(drift <= 1e-6)))    # the first record off it, or 0
        if not drift[i] <= 1e-6:
            raise ValueError(f"record {i} (id {records[i].id!r}) is off {manifold.name}: "
                             f"residual {drift[i]:.3e} exceeds 1e-6")
        points = manifold.project_point(points)

    data = TimedDataset(manifold, times, points)
    ids = [records[i].id for i in np.argsort(times, kind="stable")]
    return manifold, data, ids


def _state_payload(state: PolynomialState) -> dict:
    return {
        "gamma": np.asarray(state.gamma).reshape(-1).tolist(),
        "vels": [np.asarray(v).reshape(-1).tolist() for v in state.vels],
    }


def _fit_payload(result: FitResult, steps: int) -> dict:
    return {
        "manifold": result.manifold_name,
        "params_internal": _state_payload(result.params),
        "params_original_units": _state_payload(result.params_original),
        "sse": result.sse,
        "frechet_variance": result.frechet_variance,
        "r_squared": result.r_squared,
        "collinearity": result.collinearity,
        "iterations": result.iterations,
        "converged": result.converged,
        "stop_reason": result.stop_reason,
        "grad_norm": result.grad_norm,
        "objective_trace": result.objective_trace,
        "time_mapping": {
            "offset": result.time_offset,
            "scale": result.time_scale,
            "note": "internal time s in [0, 1]; original time t = offset + scale * s",
        },
        "steps_per_unit_time": steps,
        "elapsed_seconds": result.elapsed_seconds,
    }


def run_regression(manifold_name: str, orders: tuple, input_path, output_dir,
                   config: FitConfig, samples: int, plot_data: bool):
    """Fit every requested order and write the report files.

    config gives the grid and the stopping rule of every order.  Each
    order's curve is sampled once, into curves.csv and, for the highest
    converged order, plot_data.csv.  Returns (results, exit_code): exit
    code 2 flags any non-converged fit.
    """
    records = parse_landmarks(input_path)
    manifold, data, ids = build_dataset(manifold_name, records)

    started = _time.perf_counter()
    results = fit_orders(manifold, data, orders, config)
    elapsed = _time.perf_counter() - started

    outdir = Path(output_dir)
    outdir.mkdir(parents=True, exist_ok=True)

    payload = {
        "input": str(input_path),
        "manifold": manifold_name,
        "observations": data.size,
        "orders": list(orders),
        "config": {
            "steps": config.steps,
            "max_iters": config.max_iters,
            "tol": config.tol,
        },
        "elapsed_seconds": elapsed,
        "fits": {str(k): _fit_payload(r, config.steps) for k, r in sorted(results.items())},
    }
    (outdir / "fit.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )

    fitted = sorted(results)
    coords = [f"c{i + 1}" for i in range(int(np.prod(manifold.point_shape)))]
    curves = {k: curve_table(results[k], samples) for k in fitted}
    # each observation's distance to its fitted curve: its residual log's norm
    anchors = {k: observed_points(results[k], data) for k in fitted}
    squares = [manifold.inner(anchors[k], results[k].logs, results[k].logs) for k in fitted]
    files = [
        (outdir / "curves.csv", ["order", "time"] + coords,
         [str(k) for k in fitted for _ in range(samples)],
         np.concatenate([curves[k] for k in fitted])),
        (outdir / "residuals.csv", ["order", "id", "time", "distance"],
         [f"{k},{rec_id}" for k in fitted for rec_id in ids],
         np.column_stack([np.tile(data.times, len(fitted)),
                          np.sqrt(np.maximum(np.concatenate(squares), 0.0))])),
    ]
    converged = [k for k in fitted if results[k].converged]
    if plot_data and converged:
        best = converged[-1]
        files.append((outdir / "plot_data.csv", ["kind", "time"] + coords,
                      ["curve"] * samples + ["observations"] * data.size,
                      np.concatenate([curves[best], scatter_table(data, anchors[best])])))
    write_table(*files)

    code = 0 if len(converged) == len(fitted) else 2
    return results, code


def curve_table(result: FitResult, samples: int) -> np.ndarray:
    """The fit's own curve at samples times: one row of time and coordinates each.

    The times span the data in original units; the points are the
    trajectory's nodes nearest them.
    """
    s_values = np.linspace(0.0, 1.0, samples)
    return _table(result.time_offset + result.time_scale * s_values,
                  sample_curve(result.trajectory, s_values))


def observed_points(result: FitResult, data: TimedDataset) -> np.ndarray:
    """The fitted curve at each observation's own node."""
    traj = result.trajectory
    return traj.points[traj.node_index((data.times - result.time_offset) / result.time_scale)]


def scatter_table(data: TimedDataset, anchors) -> np.ndarray:
    """The observations as plotted: one row of time and coordinates each.

    Shape-space observations are rotated for display onto their anchors,
    the fitted curve at their own nodes (the fit itself never pre-aligns).
    """
    points, manifold = data.points, data.manifold
    if isinstance(manifold, KendallShapeSpace):
        shape = (data.size, manifold.m, manifold.d)
        points = _align_many(points.reshape(shape), anchors.reshape(shape))
    return _table(data.times, points)


def _table(times, points) -> np.ndarray:
    """One row per point: its time, then its coordinates."""
    return np.column_stack([times, np.reshape(points, (len(times), -1))])


# -- click wiring -------------------------------------------------------------


@click.group(name="riempoly")
def cli():
    """Intrinsic polynomial regression for manifold-valued data."""


@cli.command("fit")
@click.option("--manifold", type=click.Choice(MANIFOLD_CHOICES), default="kendall",
              show_default=True)
@click.option("--orders", default="0,1,2,3", show_default=True,
              help="Comma-separated polynomial orders to fit.")
@click.option("--input", "input_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "output_dir", required=True, type=click.Path(file_okay=False))
@click.option("--steps", default=100, show_default=True,
              help="Densest trajectory steps per unit of (rescaled) time; "
                   "every observation time is a node as well.")
@click.option("--max-iters", default=2000, show_default=True)
@click.option("--tol", default=1e-6, show_default=True)
@click.option("--samples", default=100, show_default=True, type=click.IntRange(min=2),
              help="Points per fitted curve in curves.csv (at least 2).")
@click.option("--plot-data/--no-plot-data", default=True, show_default=True,
              help="Also write plot_data.csv for the highest converged order.")
def fit_command(manifold, orders, input_path, output_dir, steps, max_iters, tol,
                samples, plot_data):
    """Fit polynomial trends to a timed landmark dataset."""
    try:
        # each distinct order once, in the order given
        order_list = tuple(dict.fromkeys(int(tok) for tok in orders.split(",") if tok.strip()))
        if not order_list:
            raise ValueError("need at least one order")
        config = FitConfig(order=0, steps=steps, max_iters=max_iters, tol=tol)
        results, code = run_regression(manifold, order_list, input_path,
                                       output_dir, config, samples, plot_data)
    except (ValueError, OSError, LandmarkFormatError, GeometryError) as exc:
        raise click.ClickException(str(exc))

    for k, result in sorted(results.items()):
        click.echo(
            f"order {k}: r_squared={result.r_squared:.4f} sse={result.sse:.6g} "
            f"iterations={result.iterations} converged={result.converged}"
        )
    return code


@cli.command("convert-tps")
@click.option("--input", "input_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "output_path", required=True, type=click.Path(dir_okay=False))
@click.option("--ages", default=None,
              help="Comma-separated times assigned cyclically to records that "
                   "lack an AGE/TIME attribute.")
def convert_tps_command(input_path, output_path, ages):
    """Convert a TPS landmark file to the canonical CSV layout."""
    try:
        records = parse_landmarks(input_path, fmt="tps")
        if ages is not None:
            cycle = [float(tok) for tok in ages.split(",") if tok.strip()]
            if not cycle or not np.isfinite(cycle).all():
                raise ValueError(f"--ages needs finite times, got {ages!r}")
            records = [rec if np.isfinite(rec.time)
                       else replace(rec, time=cycle[i % len(cycle)])
                       for i, rec in enumerate(records)]
        bad = [i for i, rec in enumerate(records) if not np.isfinite(rec.time)]
        if bad:
            raise ValueError(
                f"record {bad[0]} has no AGE/TIME attribute; pass --ages"
            )
        write_landmarks_csv(records, output_path)
    except (ValueError, OSError, LandmarkFormatError) as exc:
        raise click.ClickException(str(exc))
    click.echo(f"wrote {len(records)} records to {output_path}")
    return 0


@cli.command("simulate")
@click.option("--manifold", type=click.Choice(["sphere"]), default="sphere",
              show_default=True)
@click.option("--order", default=3, show_default=True)
@click.option("--out", "output_path", required=True, type=click.Path(dir_okay=False))
@click.option("--steps", default=400, show_default=True)
def simulate_command(manifold, order, output_path, steps):
    """Write sample curves of orders 1..order from one base point.

    The initial conditions are nested: every curve shares the lower-order
    vectors and adds one more, so the family visibly fans out.
    """
    try:
        if order < 1:
            raise ValueError("order must be >= 1")
        sphere = Sphere(2)
        base = np.array([1.0, 0.0, 0.0])
        seed_vels = [
            np.array([0.0, 1.6, 0.0]),
            np.array([0.0, 0.0, 2.4]),
            np.array([0.0, -3.0, 1.5]),
        ]
        while len(seed_vels) < order:
            seed_vels.append(np.roll(seed_vels[-1], 1) * 0.5)
        tables = []
        for k in range(1, order + 1):
            state = PolynomialState(
                base, sphere.project_tangent(base, np.array(seed_vels[:k])))
            traj = integrate_polynomial(sphere, state, time_grid(1.0, steps))
            tables.append(_table(traj.times, traj.points))
        write_table((output_path, ["order", "time", "x", "y", "z"],
                     [str(k) for k, table in enumerate(tables, 1) for _ in range(len(table))],
                     np.concatenate(tables)))
    except (ValueError, OSError) as exc:
        raise click.ClickException(str(exc))
    click.echo(f"wrote curves of orders 1..{order} to {output_path}")
    return 0


def main(argv=None) -> int:
    """Console entry point with the documented exit codes."""
    try:
        code = cli.main(args=argv, standalone_mode=False)
    except click.ClickException as exc:
        exc.show()
        return 1
    except click.Abort:
        return 1
    return int(code) if isinstance(code, int) else 0


if __name__ == "__main__":
    raise SystemExit(main())
