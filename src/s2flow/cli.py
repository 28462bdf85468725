"""Batch command-line front end.

Subcommands wire the generators, the flow, balancing, and the rigidity
pipeline to files:

    s2flow generate  --kind mobius --level 4 --out map.txt
    s2flow energy    map.txt
    s2flow balance   map.txt --tol 1e-6
    s2flow flow      --in map.txt --scheme semi-implicit --out final.txt --trace run.csv
    s2flow verify    --in map.txt --out report.json
    s2flow sweep     --level 4 --jobs 2 --out sweep.csv --summary summary.json
    s2flow mesh-info --level 5

Every subcommand accepts --config pointing at a JSON object whose keys match
the long flag names (dashes as underscores; `inp` for --in); explicit flags
override config values.  Config values are converted and checked like flag
text (type and choices); a key naming no option of the subcommand, or a value
the option refuses, is a usage error.  Output is deterministic: fixed seeds
in, identical bytes out.  Exit codes: 0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .balance import balance
from .errors import S2FlowError
from .fields import degree, energy, l2_norm_sq, load_map, mean, save_map, tension
from .flow import FlowConfig, default_dt, run_flow, write_trace_csv
from .mesh import build_icosphere
from .mobius import MobiusParams, max_pullback_radius
from .rigidity import (constant_sweep, default_flow_config, energy_deficit,
                       strict_json, tension_floor, verify_rigidity,
                       write_sweep_csv, write_sweep_summary)
from .scenarios import ScenarioSpec, standard_family, generate

_FLOW_KEYS = ("scheme", "dt", "stop_tension", "t_max", "record_every")


def _print_json(obj, path=None):
    text = strict_json(obj) + "\n"
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    sys.stdout.write(text)


def _config_value(key, value, action, parser):
    """A --config value converted and checked as its flag's text would be."""
    kind = action.type
    if isinstance(value, str):
        if kind is not None:
            try:
                value = kind(value)
            except (TypeError, ValueError, argparse.ArgumentTypeError) as err:
                parser.error(f"--config key {key!r}: invalid value {value!r} ({err})")
    else:
        allowed = {int: (int,), float: (int, float)}.get(kind, ())
        if isinstance(value, bool) or not isinstance(value, allowed):
            wanted = {int: "an integer", float: "a number"}.get(kind, "a string")
            parser.error(f"--config key {key!r}: expected {wanted}, got {value!r}")
        value = kind(value)
    if action.choices is not None and value not in action.choices:
        parser.error(f"--config key {key!r}: {value!r} is not one of "
                     f"{', '.join(map(str, action.choices))}")
    return value


def _apply_config(args, parser):
    """Fill unset (None) argument values from the --config JSON file.

    `parser` is the subcommand's parser.  Values go through the option's
    `type` and `choices` like command-line text; a string is converted by the
    type, any other JSON value must already be an integer (int options) or a
    number (float options).  A key that names no option of the subcommand,
    or a value the option refuses, is a usage error.
    """
    if getattr(args, "config", None) is None:
        return args
    with open(args.config, encoding="utf-8") as fh:
        table = json.load(fh)
    if not isinstance(table, dict):
        parser.error(f"--config {args.config} must hold a JSON object")
    known = sorted(set(vars(args)) - {"command", "func"})
    actions = {action.dest: action for action in parser._actions}
    for key, value in table.items():
        attr = key.replace("-", "_")
        if attr not in known:
            parser.error(f"unknown --config key {key!r} for {args.command}; "
                         f"expected one of {', '.join(known)}")
        value = _config_value(key, value, actions[attr], parser)
        if getattr(args, attr) is None:
            setattr(args, attr, value)
    return args


def _flow_config(args, mesh):
    """Flow configuration from flags; unset values fall back to the
    mesh-calibrated default (stop threshold above the tension floor)."""
    overrides = {k: getattr(args, k) for k in _FLOW_KEYS
                 if getattr(args, k, None) is not None}
    return default_flow_config(mesh, **overrides)


def _add_flow_flags(sub):
    sub.add_argument("--scheme", choices=("explicit", "semi-implicit"))
    sub.add_argument("--dt", type=float)
    sub.add_argument("--stop-tension", type=float, dest="stop_tension")
    sub.add_argument("--t-max", type=float, dest="t_max")
    sub.add_argument("--record-every", type=int, dest="record_every")


def _floats(count=None):
    """argparse type: comma-separated numbers, exactly `count` of them if set."""
    def floats(text):
        try:
            parts = tuple(float(p) for p in text.split(","))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated numbers, got {text!r}")
        if count is not None and len(parts) != count:
            raise argparse.ArgumentTypeError(f"expected {count} comma-separated numbers")
        return parts
    return floats


def _scenario_from_args(args):
    mobius = None
    if args.a is not None or args.quat is not None:
        a = args.a if args.a is not None else np.zeros(3)
        quat = args.quat if args.quat is not None else np.array([1.0, 0, 0, 0])
        mobius = MobiusParams(quat, a)
    return ScenarioSpec(kind=args.kind, level=args.level,
                        seed=args.seed if args.seed is not None else 0,
                        mobius=mobius, k=args.k,
                        eps=args.eps if args.eps is not None else 0.0,
                        a_norm=args.a_norm)


def cmd_generate(args):
    args.level = args.level if args.level is not None else 4
    spec = _scenario_from_args(args)
    mesh = build_icosphere(spec.level)
    u = generate(spec, mesh)
    save_map(u, args.out)
    with open(args.out + ".spec.json", "w", encoding="utf-8") as fh:
        fh.write(spec.to_json() + "\n")
    _print_json({"kind": spec.kind, "level": spec.level, "out": args.out})
    return 0


def cmd_energy(args):
    u = load_map(args.map)
    _print_json({
        "degree": degree(u),
        "energy": energy(u),
        "mean": [float(c) for c in mean(u)],
        "tension_l2": math.sqrt(l2_norm_sq(tension(u))),
    })
    return 0


def cmd_balance(args):
    u = load_map(args.map)
    tol = args.tol if args.tol is not None else 1e-6
    result = balance(u, tol=tol)
    _print_json({
        "a_star": [float(c) for c in result.a_star],
        "iterations": result.iterations,
        "residual": result.residual,
    })
    return 0


def cmd_flow(args):
    u0 = load_map(args.inp)
    cfg = _flow_config(args, u0.mesh)
    u, trace = run_flow(u0, cfg)
    if args.out:
        save_map(u, args.out)
    if args.trace:
        write_trace_csv(trace, args.trace)
    last = trace.samples[-1]
    _print_json({
        "energy": last.energy,
        "samples": len(trace.samples),
        "status": trace.status,
        "t_end": last.t,
        "tension_l2": math.sqrt(last.tension_sq),
    })
    return 0


def cmd_verify(args):
    u = load_map(args.inp)
    cfg = _flow_config(args, u.mesh)
    tol = args.tol if args.tol is not None else 1e-6
    report = verify_rigidity(u, flow_cfg=cfg, tol=tol,
                             excess_limit=args.excess_limit)
    _print_json(report.to_dict(), args.out)
    return 0


def cmd_sweep(args):
    level = args.level if args.level is not None else 4
    eps_values = args.eps_list if args.eps_list is not None else (0.02, 0.05, 0.1, 0.2)
    seeds = args.seeds_per_eps if args.seeds_per_eps is not None else 5
    base_seed = args.base_seed if args.base_seed is not None else 2026
    family = standard_family(level, eps_values=eps_values,
                             seeds_per_eps=seeds, base_seed=base_seed)
    cfg = None
    if any(getattr(args, k, None) is not None for k in _FLOW_KEYS):
        cfg = _flow_config(args, build_icosphere(level))
    jobs = args.jobs if args.jobs is not None else 1
    rows, summary = constant_sweep(family, flow_cfg=cfg, jobs=jobs)
    if args.out:
        write_sweep_csv(rows, args.out)
    if args.summary:
        write_sweep_summary(summary, args.summary)
    _print_json(summary)
    return 0


def cmd_mesh_info(args):
    level = args.level if args.level is not None else 4
    mesh = build_icosphere(level)
    _print_json({
        "area_deficit": mesh.area_deficit,
        "dt_explicit": default_dt(mesh, "explicit"),
        "dt_semi_implicit": default_dt(mesh, "semi-implicit"),
        "edges": len(mesh.edges),
        "energy_deficit": energy_deficit(mesh),
        "faces": len(mesh.faces),
        "h_mean": mesh.mean_edge_length,
        "h_min": mesh.min_edge_length,
        "level": level,
        "max_pullback_radius": max_pullback_radius(mesh),
        "tension_floor": tension_floor(mesh),
        "vertices": len(mesh.vertices),
    })
    return 0


def _build_parser():
    """The top-level parser and the subcommand parsers by name."""
    parser = argparse.ArgumentParser(
        prog="s2flow",
        description="Numerical laboratory for the harmonic map heat flow "
                    "on degree-one sphere maps.")
    subs = parser.add_subparsers(dest="command", required=True)

    gen = subs.add_parser("generate", help="write a scenario map to a file")
    gen.add_argument("--kind", required=True,
                     choices=("mobius", "rational_k", "perturbed_mobius",
                              "concentrated_unbalanced"))
    gen.add_argument("--level", type=int)
    gen.add_argument("--seed", type=int)
    gen.add_argument("--eps", type=float)
    gen.add_argument("--k", type=int)
    gen.add_argument("--a", type=_floats(3), help="dilation vector ax,ay,az")
    gen.add_argument("--quat", type=_floats(4), help="rotation quaternion w,x,y,z")
    gen.add_argument("--a-norm", type=float, dest="a_norm",
                     help="|a| for concentrated_unbalanced")
    gen.add_argument("--out", required=True)
    gen.add_argument("--config")
    gen.set_defaults(func=cmd_generate)

    ene = subs.add_parser("energy", help="energy, degree, tension, mean of a map file")
    ene.add_argument("map")
    ene.add_argument("--config")
    ene.set_defaults(func=cmd_energy)

    bal = subs.add_parser("balance", help="center-of-mass balancing parameter")
    bal.add_argument("map")
    bal.add_argument("--tol", type=float)
    bal.add_argument("--config")
    bal.set_defaults(func=cmd_balance)

    flo = subs.add_parser("flow", help="run the heat flow from a map file")
    flo.add_argument("--in", dest="inp", required=True)
    flo.add_argument("--out", help="final map file")
    flo.add_argument("--trace", help="trace CSV file")
    _add_flow_flags(flo)
    flo.add_argument("--config")
    flo.set_defaults(func=cmd_flow)

    ver = subs.add_parser("verify", help="balance, flow, and distance/excess report")
    ver.add_argument("--in", dest="inp", required=True)
    ver.add_argument("--out", help="report JSON file")
    ver.add_argument("--tol", type=float)
    ver.add_argument("--excess-limit", type=float, dest="excess_limit")
    _add_flow_flags(ver)
    ver.add_argument("--config")
    ver.set_defaults(func=cmd_verify)

    swp = subs.add_parser("sweep", help="rigidity pipeline across a scenario family")
    swp.add_argument("--level", type=int)
    swp.add_argument("--eps-list", dest="eps_list", type=_floats(),
                     help="comma-separated perturbation sizes")
    swp.add_argument("--seeds-per-eps", type=int, dest="seeds_per_eps")
    swp.add_argument("--base-seed", type=int, dest="base_seed")
    swp.add_argument("--jobs", type=int)
    swp.add_argument("--out", help="rows CSV file")
    swp.add_argument("--summary", help="summary JSON file")
    _add_flow_flags(swp)
    swp.add_argument("--config")
    swp.set_defaults(func=cmd_sweep)

    nfo = subs.add_parser("mesh-info", help="mesh scales and calibrations")
    nfo.add_argument("--level", type=int)
    nfo.add_argument("--config")
    nfo.set_defaults(func=cmd_mesh_info)

    return parser, subs.choices


def main(argv=None):
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    try:
        args = _apply_config(args, commands[args.command])
        return args.func(args)
    except S2FlowError as err:
        sys.stderr.write(f"error: {err}\n")
        return 1
    except (OSError, json.JSONDecodeError) as err:
        sys.stderr.write(f"error: {err}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
