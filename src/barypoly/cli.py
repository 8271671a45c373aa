"""Command line front end.

Subcommands:
  alpha       stationary value and instability certificate for one p
  trajectory  iterate the sorted conjugate state, emit CSV
  dual        averaging-polygon image points of the dual weights, emit CSV
  verify      randomized verification sweep, emit PASS/FAIL lines or JSON
  figure      SVG of the collapsing averaging polygon

Exit codes: 0 success, 1 verification failure, 2 usage or input error.
Options may be loaded from a JSON config file; explicit flags win.

Each subcommand imports the layers it uses when it runs, so that alpha, a
usage error and --help load only the stationary layer and never numpy:
trajectory loads dynamics, dual and figure load dynamics and geometry, and
verify loads analysis and dynamics (and through them geometry).
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import itertools
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING, TextIO

from .stationary import certificate, solve_alpha

if TYPE_CHECKING:
    import numpy as np

    from .dynamics import WeightTuple
    from .geometry import PointSet

__all__ = ["main", "RunConfig", "figure_iterates"]

_FLOAT_FMT = "%.17g"

# Stopping rule of figure_iterates, see its docstring.
_FIGURE_MIN_ITERS = 60
_FIGURE_SHRINK = 1e-3
_FIGURE_CAP = 20000


@dataclasses.dataclass
class RunConfig:
    """Resolved options shared by the subcommands; the fields are the config keys."""

    p: int | None = None
    weights: tuple[float, ...] | None = None
    points: list[list[float]] | None = None
    max_steps: int | None = None  # None: the subcommand's default, see _max_steps
    seed: int = 0
    output_dir: str = "."


def _max_steps(cfg: RunConfig, default: int = 200) -> int:
    # An explicit --steps or config value always wins, even when it equals
    # some subcommand's default.
    return default if cfg.max_steps is None else cfg.max_steps


def _fmt(x: float) -> str:
    return _FLOAT_FMT % x


def _parse_weights(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad weight list {text!r}: {exc}") from None


def _load_config(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("config file must hold a JSON object")
    return data


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_numbers(value) -> bool:
    # a JSON array of numbers; true and false are not numbers
    return isinstance(value, list) and all(_is_int(v) or isinstance(v, float) for v in value)


def _config_value(key: str, value):
    # Each key's JSON type is checked here, so that a malformed value is an
    # input error (exit 2) instead of a TypeError deep in a subcommand.
    if key == "weights":
        ok = _is_numbers(value)
    elif key == "points":
        ok = isinstance(value, list) and all(_is_numbers(row) for row in value)
    elif key == "output_dir":
        ok = isinstance(value, str)
    else:
        ok = _is_int(value)
    if not ok:
        raise ValueError(f"config value of {key!r} has the wrong JSON type: {value!r}")
    return tuple(float(v) for v in value) if key == "weights" else value


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "config", None):
        raw = _load_config(args.config)
        known = [f.name for f in dataclasses.fields(RunConfig)]
        unknown = sorted(set(raw).difference(known))
        if unknown:
            raise ValueError(f"unknown config keys {unknown}; known: {', '.join(known)}")
        for key, value in raw.items():
            setattr(cfg, key, _config_value(key, value))
    if getattr(args, "p", None) is not None:
        cfg.p = args.p
    if getattr(args, "weights", None) is not None:
        cfg.weights = args.weights
    if getattr(args, "steps", None) is not None:
        cfg.max_steps = args.steps
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
    if getattr(args, "out_dir", None) is not None:
        cfg.output_dir = args.out_dir
    if getattr(args, "points_file", None):
        with open(args.points_file, encoding="utf-8") as fh:
            cfg.points = _config_value("points", json.load(fh))
    return cfg


def _write_csv(path: str | None, header: list[str], rows) -> TextIO:
    # Write the header and rows, lists of fields, as CSV lines to path, or to
    # stdout for None or '-', and return the stream of the command's note:
    # stderr when the CSV went to stdout, stdout otherwise.
    to_stdout = path is None or path == "-"
    with contextlib.nullcontext(sys.stdout) if to_stdout else open(path, "w", encoding="utf-8", newline="\n") as out:
        for row in itertools.chain([header], rows):
            out.write(",".join(row) + "\n")
    return sys.stderr if to_stdout else sys.stdout


# ---------------------------------------------------------------------------
# alpha
# ---------------------------------------------------------------------------

def cmd_alpha(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    if cfg.p is None:
        args.parser.error("alpha needs --p")
    cert = certificate(cfg.p)
    if args.json:
        payload = {**dataclasses.asdict(cert), "stationary_weight": 1.0 - cert.alpha}
        print(json.dumps(payload, indent=2))
    else:
        print(f"p = {cert.p}")
        print(f"alpha = {_fmt(cert.alpha)}")
        print(f"stationary weight 1 - alpha = {_fmt(1.0 - cert.alpha)}")
        print(f"beta = alpha**(p-2) = {_fmt(cert.beta)}")
        print(f"repulsive eigenvalue (1-p)*beta = {_fmt(cert.lambda_repulsive)}")
        print(f"contractive eigenvalue beta = {_fmt(cert.lambda_contractive)}")
        print(f"instability margin |lambda|-1 = {_fmt(cert.instability_margin)}")
    return 0


# ---------------------------------------------------------------------------
# trajectory
# ---------------------------------------------------------------------------

def cmd_trajectory(args: argparse.Namespace) -> int:
    from .dynamics import _PHASE_NAMES, WeightTuple, conjugate_of, run_trajectory

    cfg = _resolve_config(args)
    if cfg.weights is None:
        args.parser.error("trajectory needs --weights (comma separated, each in (0,1))")
    t0 = WeightTuple.of(cfg.weights)
    alpha = solve_alpha(t0.p)
    traj = run_trajectory(conjugate_of(t0), _max_steps(cfg), alpha)

    header = ["m"] + [f"u_{k + 1}" for k in range(traj.p)] + ["spread", "phase"]
    note = _write_csv(args.out, header, (
        [str(m), *map(_fmt, u), _fmt(spread), _PHASE_NAMES[code + 1]]
        for m, (u, spread, code) in enumerate(zip(traj.states.tolist(), traj.spread.tolist(), traj.phase.tolist()))))
    if traj.saturation_step is not None:
        print(
            f"saturated at step {traj.saturation_step}: a component left (0, 1); "
            f"{len(traj)} states recorded",
            file=note,
        )
    else:
        print(f"recorded {len(traj)} states (no saturation)", file=note)
    return 0


# ---------------------------------------------------------------------------
# dual
# ---------------------------------------------------------------------------

def _points_from_config(cfg: RunConfig, p: int) -> PointSet:
    from .geometry import PointSet, _regular_polygon

    if cfg.points is not None:
        return PointSet.of(cfg.points)
    return _regular_polygon(p)


def cmd_dual(args: argparse.Namespace) -> int:
    from .dynamics import WeightTuple
    from .geometry import dual_sequence

    cfg = _resolve_config(args)
    if cfg.weights is None:
        args.parser.error("dual needs --weights (comma separated, each in (0,1))")
    t0 = WeightTuple.of(cfg.weights)
    record = dual_sequence(_points_from_config(cfg, t0.p), t0, _max_steps(cfg))

    header = ["m"] + [f"g_{d + 1}" for d in range(record.points.shape[1])] + ["distance"]
    note = _write_csv(args.out, header, (
        [str(m), *map(_fmt, g), _fmt(d)] for m, (g, d) in enumerate(zip(record.points, record.distances_to_centroid))))
    if record.fitted_rate is None:
        print("fitted rate: not enough usable samples", file=note)
    else:
        print(f"fitted log-distance rate per step: {_fmt(record.fitted_rate)}", file=note)
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args: argparse.Namespace) -> int:
    from .analysis import KNOWN_CHECKS, _perturbed_record, default_suite, trajectory_checks
    from .dynamics import WeightTuple, conjugate_of, run_trajectory

    cfg = _resolve_config(args)
    checks = args.check or None
    if checks:
        unknown = set(checks).difference(KNOWN_CHECKS)
        if unknown:
            raise ValueError(f"unknown checks {sorted(unknown)}; known: {', '.join(KNOWN_CHECKS)}")

    if cfg.weights is not None:
        if (args.p, args.seed, args.seeds) != (None, None, None):
            args.parser.error("--p, --seed and --seeds set up a sweep; verify --weights checks one trajectory")
        t0 = WeightTuple.of(cfg.weights)
        max_steps = _max_steps(cfg)
        traj = run_trajectory(conjugate_of(t0), max_steps, solve_alpha(t0.p))
        if args.inject_fault:
            traj = _perturbed_record(traj)
        ran = trajectory_checks(traj)
        results = [r for r in ran if not checks or r.name in checks]
        config = {"weights": list(t0.t), "max_steps": max_steps, "inject_fault": args.inject_fault}
        why = f"--weights runs only the trajectory checks ({', '.join(r.name for r in ran)})"
    else:
        p_values = [cfg.p] if cfg.p is not None else [3, 4, 5, 6, 7, 8]
        seeds = args.seeds if args.seeds is not None else 100
        max_steps = _max_steps(cfg, 400)
        results = default_suite(p_values=p_values, seeds_per_p=seeds, max_steps=max_steps,
                                rng_seed=cfg.seed, checks=checks, inject_fault=args.inject_fault)
        config = {"p_values": p_values, "seeds_per_p": seeds, "max_steps": max_steps,
                  "rng_seed": cfg.seed, "inject_fault": args.inject_fault}
        why = f"unique_fixed_point_grid runs only when the swept p values {p_values} include 3"
    if not results:
        raise ValueError(f"checks {sorted(checks)} ran nothing: {why}")

    passed = all(r.passed for r in results)
    if args.json or args.out:
        payload = {"config": config, "checks": [r.as_json() for r in results], "passed": passed}
        text = json.dumps(payload, indent=2)
        if args.out:
            Path(args.out).write_text(text + "\n", encoding="utf-8")
        else:
            print(text)
    if not (args.json and not args.out):
        for r in results:
            print(f"{'PASS' if r.passed else 'FAIL'} {r.name}")
        print(f"{'all checks passed' if passed else 'CHECK FAILURES PRESENT'}")
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# figure
# ---------------------------------------------------------------------------

def figure_iterates(A: PointSet, t: WeightTuple) -> list[PointSet]:
    """Averaging-polygon iterates, run until visibly collapsed.

    Iterates until at least 60 steps are drawn and the diameter has dropped
    below 1e-3 times the initial diameter, hard-capped at 20000 steps.
    """
    import numpy as np

    from .geometry import polygon_step

    def diameter(ps: PointSet) -> float:
        pts = ps.points
        d = 0.0
        for i in range(pts.shape[0] - 1):
            d = max(d, float(np.max(np.linalg.norm(pts[i + 1:] - pts[i], axis=1))))
        return d

    d0 = diameter(A)
    iterates = [A]
    B = A
    while len(iterates) - 1 < _FIGURE_CAP:
        B = polygon_step(B, t)
        iterates.append(B)
        if len(iterates) - 1 >= _FIGURE_MIN_ITERS and diameter(B) <= _FIGURE_SHRINK * d0:
            break
    return iterates


_ORDER_COLORS = ("#1f77b4", "#d62728")


def _svg_poly(points: np.ndarray, to_px, color: str, width: float, opacity: float) -> str:
    coords = " ".join("%.4f,%.4f" % to_px(pt) for pt in list(points) + [points[0]])
    return (
        f'<polyline points="{coords}" fill="none" stroke="{color}" '
        f'stroke-width="{width:.4f}" stroke-opacity="{opacity:.4f}" />'
    )


def _render_svg(families: list[tuple[list[PointSet], str]], limits: list[tuple[np.ndarray, str]],
                center_pt: np.ndarray) -> str:
    import numpy as np

    all_pts = np.vstack([ps.points for fam, _ in families for ps in fam])
    lo = all_pts.min(axis=0)
    hi = all_pts.max(axis=0)
    span = float(max(hi[0] - lo[0], hi[1] - lo[1], 1e-30))
    scale = 900.0 / span
    mid = (lo + hi) / 2.0

    def to_px(pt: np.ndarray) -> tuple[float, float]:
        x = 500.0 + (float(pt[0]) - float(mid[0])) * scale
        y = 500.0 - (float(pt[1]) - float(mid[1])) * scale
        return x, y

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 1000 1000" '
        'width="1000" height="1000">',
        '<rect width="1000" height="1000" fill="white" />',
    ]
    for fam, color in families:
        n = len(fam)
        for i, ps in enumerate(fam):
            opacity = 1.0 if n <= 1 else max(0.15, 1.0 - 0.85 * i / (n - 1))
            width = 2.0 if i == 0 else 1.2
            lines.append(_svg_poly(ps.points, to_px, color, width, opacity))
    for pt, color in limits:
        x, y = to_px(pt)
        lines.append(f'<circle cx="{x:.4f}" cy="{y:.4f}" r="5" fill="{color}" />')
    cx, cy = to_px(center_pt)
    lines.append(
        f'<circle cx="{cx:.4f}" cy="{cy:.4f}" r="3" fill="black" stroke="white" stroke-width="1" />'
    )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def cmd_figure(args: argparse.Namespace) -> int:
    from .dynamics import WeightTuple
    from .geometry import centroid, limit_point, weight_orders

    cfg = _resolve_config(args)
    if cfg.weights is None:
        args.parser.error("figure needs --weights (comma separated, each in (0,1))")
    if args.superpose and args.order is not None:
        args.parser.error("--superpose draws weight orders 0 and 1; it takes no --order")
    order = 0 if args.order is None else args.order
    if order < 0:
        args.parser.error(f"--order must be >= 0, got {order}")
    t0 = WeightTuple.of(cfg.weights)
    A = _points_from_config(cfg, t0.p)
    if A.dim != 2:
        raise ValueError(f"figures need planar points, got dim={A.dim}")
    A.require_distinct()

    weights = weight_orders(t0, 1) if args.superpose else [weight_orders(t0, order)[-1]]
    families = [(figure_iterates(A, t), color) for t, color in zip(weights, _ORDER_COLORS)]
    limits = [(limit_point(A, t), color) for t, color in zip(weights, _ORDER_COLORS)]
    svg = _render_svg(families, limits, centroid(A))

    if args.out:
        out_path = Path(args.out)
    else:
        name = "figure_superposed.svg" if args.superpose else f"figure_order{order}.svg"
        out_path = Path(cfg.output_dir) / name
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(svg, encoding="utf-8")
    n_total = sum(len(fam) for fam, _ in families)
    print(f"wrote {out_path} ({n_total} polygons)")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="barypoly",
        description="weight-product polygon averaging: trajectories, duals, verifiers, figures",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Each subcommand takes only the flags it reads (--p only alpha and
    # verify, --seed only verify; the config keys stay shared), spelled out:
    # an abbreviation would read `figure --p 5` as --points-file 5.  Its
    # usage errors go through its own parser, so they print its usage line.
    def subcommand(name: str, help: str) -> argparse.ArgumentParser:
        sp = sub.add_parser(name, help=help, allow_abbrev=False)
        sp.add_argument("--config", help="JSON config file; explicit flags override it")
        sp.set_defaults(parser=sp)
        return sp

    sp = subcommand("alpha", "stationary value and instability certificate")
    sp.add_argument("--p", type=int, help="number of components")
    sp.add_argument("--json", action="store_true", help="emit a JSON object")
    sp.set_defaults(fn=cmd_alpha)

    sp = subcommand("trajectory", "iterate the sorted conjugate state, CSV output")
    sp.add_argument("--weights", type=_parse_weights, help="initial weights, comma separated")
    sp.add_argument("--steps", type=int, help="iteration count (default 200)")
    sp.add_argument("--out", help="CSV path ('-' for stdout, the default)")
    sp.set_defaults(fn=cmd_trajectory)

    sp = subcommand("dual", "dual limit-point sequence, CSV output")
    sp.add_argument("--weights", type=_parse_weights, help="initial weights, comma separated")
    sp.add_argument("--steps", type=int, help="sequence length (default 200)")
    sp.add_argument("--points-file", help="JSON array of base points (default: regular polygon)")
    sp.add_argument("--out", help="CSV path ('-' for stdout, the default)")
    sp.set_defaults(fn=cmd_dual)

    sp = subcommand("verify", "randomized verification sweep")
    sp.add_argument("--p", type=int, help="number of components (default: sweep p = 3..8)")
    sp.add_argument("--seed", type=int, help="RNG seed of the sweep")
    sp.add_argument("--check", action="append", help="restrict to this check (repeatable)")
    sp.add_argument("--weights", type=_parse_weights, help="verify one trajectory instead of sweeping")
    sp.add_argument("--steps", type=int,
                    help="steps per trajectory (default 400 for a sweep, 200 with --weights)")
    sp.add_argument("--seeds", type=int, help="random seeds per p (default 100)")
    sp.add_argument("--inject-fault", action="store_true",
                    help="corrupt one trajectory, of the sweep or of --weights, "
                         "to demonstrate failure detection")
    sp.add_argument("--json", action="store_true", help="emit the JSON report to stdout")
    sp.add_argument("--out", help="write the JSON report to this path")
    sp.set_defaults(fn=cmd_verify)

    sp = subcommand("figure", "SVG of the collapsing averaging polygon")
    sp.add_argument("--weights", type=_parse_weights, help="initial weights, comma separated")
    sp.add_argument("--order", type=int,
                    help="weight order: 0 (the default) uses the seed weights, n the n-th derived weights")
    sp.add_argument("--superpose", action="store_true", help="overlay orders 0 and 1")
    sp.add_argument("--points-file", help="JSON array of planar base points")
    sp.add_argument("--out", help="SVG path (default: figure_order<N>.svg)")
    sp.add_argument("--out-dir", dest="out_dir", help="directory for default output names")
    sp.set_defaults(fn=cmd_figure)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # Subcommands raise ValueError for bad input, OSError for unusable files
    # and SaturationError for input whose iteration leaves (0, 1).  Other
    # ArithmeticErrors propagate; only they make main load dynamics.
    try:
        return args.fn(args)
    except (OSError, ValueError, ArithmeticError) as exc:
        if isinstance(exc, ArithmeticError):
            from .dynamics import SaturationError

            if not isinstance(exc, SaturationError):
                raise
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
