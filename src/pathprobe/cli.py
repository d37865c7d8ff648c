"""Config-driven command line for sweeps, counting runs and calibration.

One JSON config drives every subcommand.  Keys mirror the
``ExperimentConfig`` field names; omitted keys fall back to defaults and
unknown keys are rejected by name.  ``--config paper`` selects a built-in
preset with the demonstration parameters (probe rotation with
sin^2(theta0) = 0.0153, beam splitter reflectivity 0.5285, dephasing tuned
for a dark-port fringe visibility of 0.9629, 110000 photons/s, dark rates
400/s and 800/s, 100 s windows, 41 phases from -22.5 to 202.5 degrees).

All outputs are written atomically; a failed run never leaves a partial
file.  Reports are JSON on stdout unless ``--out`` is given.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import typing

import numpy as np

from . import analysis, datasets, interferometer, montecarlo
from .interferometer import ExperimentConfig
from .optics import RotationSpec

PRESET_NAME = "paper"

# The CLI defaults to a probe rotation of 0.1225 rad: the library default
# of 0 gives a zero reference flip rate, which leaves every a2 undefined.
DEFAULT_DOCUMENT = {
    **dataclasses.asdict(ExperimentConfig(rotation=RotationSpec(theta0=0.1225))),
    "background_table": None,
    "out": None,
}


class ConfigError(ValueError):
    """A config document failed to load or validate."""


def _preset_document() -> dict:
    """The built-in demonstration preset as a full config document."""
    theta0 = math.asin(math.sqrt(0.0153))
    doc = json.loads(json.dumps(DEFAULT_DOCUMENT))
    doc["rotation"]["theta0"] = theta0
    doc["beamsplitter"] = {"reflectivity_h": 0.5285, "reflectivity_v": 0.5285}
    base = build_config(doc)
    doc["dephasing"]["v_d"] = analysis.dephasing_for_visibility(
        base, interferometer.PORT_MINUS, 0.9629
    )
    return doc


def _merge(default: dict, user: dict, prefix: str = "") -> dict:
    out = dict(default)
    for key, value in user.items():
        if key not in default:
            raise ConfigError(f"unknown config key: {prefix}{key}")
        if isinstance(default[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config key {prefix}{key} must be an object")
            out[key] = _merge(default[key], value, prefix=f"{prefix}{key}.")
        else:
            out[key] = value
    return out


def _number(key: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"config key {key} must be a number, got {value!r}")
    return float(value)


def _integer(key: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"config key {key} must be an integer, got {value!r}")
    return value


def _build(cls, doc: dict, prefix: str = ""):
    """``cls`` from its fields in ``doc``, recursing into nested specs."""
    values = {}
    for name, kind in typing.get_type_hints(cls).items():
        key = f"{prefix}{name}"
        if dataclasses.is_dataclass(kind):
            values[name] = _build(kind, doc[name], f"{key}.")
        elif kind is int:
            values[name] = _integer(key, doc[name])
        else:
            values[name] = _number(key, doc[name])
    return cls(**values)


def build_config(doc: dict) -> ExperimentConfig:
    """Validated ``ExperimentConfig`` from a complete config document."""
    for key in ("background_table", "out"):
        value = doc.get(key)
        if not (value is None or isinstance(value, str)):
            raise ConfigError(f"config key {key} must be a string or null, got {value!r}")
    try:
        return _build(ExperimentConfig, doc)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_document(config_arg: str) -> dict:
    """Resolved config document for a ``--config`` value (path or preset)."""
    if config_arg == PRESET_NAME:
        return _preset_document()
    try:
        with open(config_arg, "r", encoding="utf-8") as handle:
            user = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {config_arg!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {config_arg!r}: {exc}") from exc
    if not isinstance(user, dict):
        raise ConfigError(f"config root in {config_arg!r} must be a JSON object")
    return _merge(DEFAULT_DOCUMENT, user)


def parse_config(config_arg: str) -> ExperimentConfig:
    """Load and validate a config file (or the ``paper`` preset name)."""
    return build_config(load_document(config_arg))


def _resolve(args) -> tuple[ExperimentConfig, dict]:
    doc = load_document(args.config)
    if getattr(args, "seed", None) is not None:
        doc["seed"] = args.seed
    return build_config(doc), doc


def _print_config(doc: dict) -> int:
    print(json.dumps(doc, indent=2))
    return 0


def _out_path(args, doc: dict, required: bool = True):
    out = args.out if args.out is not None else doc.get("out")
    if out is None and required:
        raise ConfigError("missing output path (pass --out or set 'out' in the config)")
    return out


def _emit_report(payload: dict, out) -> int:
    text = json.dumps(payload, indent=2) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        datasets.write_json(out, payload)
    return 0


def _load_background_table(doc: dict):
    path = doc.get("background_table")
    if path is None:
        return None
    return datasets.read_background_csv(path)


def cmd_sweep(args) -> int:
    config, doc = _resolve(args)
    if args.print_config:
        return _print_config(doc)
    result = interferometer.sweep(config)
    datasets.write_sweep_csv(_out_path(args, doc), result)
    return 0


def cmd_mc_sweep(args) -> int:
    config, doc = _resolve(args)
    if args.print_config:
        return _print_config(doc)
    table = _load_background_table(doc)
    result, raw_records, background_records = montecarlo.mc_protocol(
        config, args.repeats, table, args.bootstrap
    )
    datasets.write_sweep_csv(_out_path(args, doc), result)
    if args.counts_out is not None:
        datasets.write_counts_csv(args.counts_out, raw_records)
    if args.background_out is not None:
        datasets.write_background_csv(args.background_out, background_records)
    return 0


def cmd_blocked(args) -> int:
    config, doc = _resolve(args)
    if args.print_config:
        return _print_config(doc)
    records = []
    phases = config.phase_grid.phases_deg()
    for open_path in (1, 2):
        blocked = "path2" if open_path == 1 else "path1"
        table = interferometer.joint_probabilities(config, phases, blocked).tolist()
        for phase, row in zip(phases, table):
            probs = interferometer.OutcomeProbabilities.from_row(row)
            records.append(
                datasets.BlockedRecord(
                    phase_deg=phase,
                    open_path=open_path,
                    p_plus=probs.port_probability(interferometer.PORT_PLUS) / probs.survival,
                    p_minus=probs.port_probability(interferometer.PORT_MINUS) / probs.survival,
                    p_h_given_plus=interferometer.conditional_flip_probability(
                        probs, interferometer.PORT_PLUS
                    ),
                    p_h_given_minus=interferometer.conditional_flip_probability(
                        probs, interferometer.PORT_MINUS
                    ),
                    survival=probs.survival,
                )
            )
    datasets.write_blocked_csv(_out_path(args, doc), records)
    return 0


def _fringe_payload(fit: analysis.FringeFit) -> dict:
    return {
        "amplitude": fit.amplitude,
        "phase_offset_deg": fit.phase_offset_deg,
        "offset": fit.offset,
        "visibility": fit.visibility,
        "visibility_sigma": fit.visibility_sigma,
    }


def cmd_visibility(args) -> int:
    config, doc = _resolve(args)
    if args.print_config:
        return _print_config(doc)
    result = interferometer.sweep(config)
    payload = {}
    for port in interferometer.PORTS:
        phases, values = analysis.fringe_series(result, port)
        payload[port] = _fringe_payload(analysis.fit_fringe(phases, values))
    return _emit_report(payload, _out_path(args, doc, required=False))


def _gt_payload(fit: analysis.GTFit) -> dict:
    return {
        "amplitude": fit.amplitude,
        "frequency": fit.frequency,
        "theta_gt0_deg": fit.theta_gt0_deg,
        "offset": fit.offset,
        "degenerate": fit.degenerate,
    }


def cmd_gt_calibrate(args) -> int:
    config, doc = _resolve(args)
    if args.print_config:
        return _print_config(doc)
    angles = np.linspace(-45.0, 45.0, 181)
    payload = {}
    for port in interferometer.PORTS:
        fits = {}
        for open_path in (1, 2):
            curve = interferometer.gt_scan(config, port, open_path, angles)
            fits[open_path] = analysis.fit_gt_curve(angles, curve)
        payload[port] = {
            "open_path1": _gt_payload(fits[1]),
            "open_path2": _gt_payload(fits[2]),
            "compensation_deg": analysis.compensation_angle(fits[1], fits[2]),
        }
    return _emit_report(payload, _out_path(args, doc, required=False))


def cmd_srl(args) -> int:
    config, doc = _resolve(args)
    if args.print_config:
        return _print_config(doc)
    records = []
    delta = {}
    for port in interferometer.PORTS:
        per_path = {}
        for path in (1, 2):
            record = analysis.stokes_rl(config, path, port)
            per_path[path] = record.s_rl
            records.append(
                {"path": path, "port": port, "s_rl": record.s_rl, "sigma": record.sigma}
            )
        delta[port] = per_path[1] + per_path[2]
    theta0 = config.rotation.theta0
    payload = {
        "theta0": theta0,
        "records": records,
        "delta_s_rl": delta,
        "phase_offset_deg": {
            port: analysis.phase_offset_from_srl(delta[port], theta0)
            for port in interferometer.PORTS
        },
    }
    return _emit_report(payload, _out_path(args, doc, required=False))


def cmd_background(args) -> int:
    config, doc = _resolve(args)
    if args.print_config:
        return _print_config(doc)
    if args.table is not None:
        records = datasets.read_background_csv(args.table)
    else:
        records = montecarlo.simulate_background_table(config, args.repeats)
    datasets.write_background_csv(_out_path(args, doc), records)
    return 0


def cmd_subtract(args) -> int:
    config, doc = _resolve(args)
    if args.print_config:
        return _print_config(doc)
    raw_records = datasets.read_counts_csv(args.raw)
    background_records = datasets.read_background_csv(args.background)
    index = montecarlo._background_index(background_records, accept_shared=True)
    corrected = []
    for raw in raw_records:
        background = index.get((raw.run_kind, raw.port, raw.pol_setting))
        if background is None:
            background = index.get(("background", raw.port, raw.pol_setting))
        if background is None:
            raise ConfigError(
                f"no background row for ({raw.run_kind!r}, {raw.port!r}, {raw.pol_setting!r})"
            )
        corrected.append(montecarlo.subtract_background(raw, background))
    datasets.write_corrected_csv(_out_path(args, doc), corrected)
    return 0


def cmd_figures(args) -> int:
    config, doc = _resolve(args)
    if args.print_config:
        return _print_config(doc)
    result = interferometer.sweep(config)
    datasets.write_figure_csvs(_out_path(args, doc), result)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pathprobe",
        description="Two-path single-photon probe: sweeps, counting runs, calibration.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--config",
        default=PRESET_NAME,
        help=f"JSON config path, or {PRESET_NAME!r} for the built-in preset",
    )
    common.add_argument("--out", default=None, help="output path (file or directory)")
    common.add_argument("--seed", type=int, default=None, help="override the config seed")
    common.add_argument(
        "--print-config",
        action="store_true",
        help="print the resolved config as JSON and exit",
    )

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", parents=[common], help="exact-model phase sweep CSV")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "mc-sweep", parents=[common], help="counting-statistics sweep CSV with sigmas"
    )
    p.add_argument("--repeats", type=int, default=1, help="counting windows per setting")
    p.add_argument(
        "--bootstrap",
        type=int,
        default=0,
        help="parametric bootstrap replicates for the sigmas (0 = error propagation)",
    )
    p.add_argument("--counts-out", default=None, help="also write the raw counts CSV here")
    p.add_argument(
        "--background-out", default=None, help="also write the background table CSV here"
    )
    p.set_defaults(func=cmd_mc_sweep)

    p = sub.add_parser("blocked", parents=[common], help="single-path run CSV for both paths")
    p.set_defaults(func=cmd_blocked)

    p = sub.add_parser("visibility", parents=[common], help="fringe-fit report per port")
    p.set_defaults(func=cmd_visibility)

    p = sub.add_parser(
        "gt-calibrate",
        parents=[common],
        help="analyzer-scan fits and compensation angles per port",
    )
    p.set_defaults(func=cmd_gt_calibrate)

    p = sub.add_parser(
        "srl", parents=[common], help="circular polarization components and phase offsets"
    )
    p.set_defaults(func=cmd_srl)

    p = sub.add_parser(
        "background", parents=[common], help="simulate or ingest a background table"
    )
    p.add_argument("--repeats", type=int, default=1, help="counting windows per channel")
    p.add_argument("--table", default=None, help="ingest this background CSV instead")
    p.set_defaults(func=cmd_background)

    p = sub.add_parser(
        "subtract", parents=[common], help="background-subtract a raw counts CSV"
    )
    p.add_argument("--raw", required=True, help="raw counts CSV")
    p.add_argument("--background", required=True, help="background table CSV")
    p.set_defaults(func=cmd_subtract)

    p = sub.add_parser(
        "figures", parents=[common], help="emit fig4/fig5a/fig5b/fig6a/fig6b CSVs"
    )
    p.set_defaults(func=cmd_figures)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
