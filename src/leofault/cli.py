"""Command-line driver: simulation runs, statistics, and model lookups.

Subcommands:

    simulate --config <file> --out <trace>     full fault-trace run
    isl-cdf --config <file> --out <csv>        grazing-altitude CDF
    dose --inclination <deg>                   mission dose / lifetime
    seu --satellites N --devices D --rate R --days T
    tle parse <file>                           element-set report
    rtt --alt-km <h> --elevation <deg>         bent-pipe round-trip time

All diagnostics go to stderr; exit code 0 means the command completed.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from typing import List, Optional

from .constants import EARTH_RADIUS_KM, _check_range, is_plain_number_text
from .faults import default_dose_profile, expected_seu_count, tid_survival
from .geometry import propagation_delay, slant_range_km
from .simulation import (
    ConfigError,
    build_fleet,
    format_summary,
    load_config,
    run_simulation,
)
from .stats import min_isl_altitude_cdf, write_cdf_csv
from .tle import TleFormatError, read_tle_file, tle_to_elements
from .trace import TraceParseError


def _number(text: str, convert, kind: str):
    try:
        if is_plain_number_text(text) and abs(value := convert(text)) <= sys.float_info.max:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be {kind}, got {text!r}")


def _finite(text: str) -> float:
    """argparse type: float() of plain text without nan and +-inf; argparse names the flag."""
    return _number(text, float, "a finite number")


def _integer(text: str) -> int:
    """argparse type: int() of plain text within the float range the models compute in."""
    return _number(text, int, "an integer within the float range")


def _fmt(value: float) -> str:
    return f"{value:.10g}"


def _cmd_simulate(args) -> int:
    config = load_config(args.config)
    summary = run_simulation(config, args.out)
    print(format_summary(summary))
    return 0


def _cmd_isl_cdf(args) -> int:
    config = load_config(args.config)
    constellation = build_fleet(config)
    cdf = min_isl_altitude_cdf(
        constellation,
        0.0,
        config.duration_s,
        config.step_s,
        per_link_min=args.per_link_min,
        earth_radius_km=config.earth_radius_km,
    )
    write_cdf_csv(cdf, args.out)
    below = cdf.proportion_below(config.isl_threshold_km)
    mode = "per-link minima" if args.per_link_min else "per-link per-step samples"
    print(
        f"cdf written to {args.out} ({cdf.values.size} distinct values, {mode}); "
        f"fraction below {_fmt(config.isl_threshold_km)} km: {_fmt(below)}"
    )
    return 0


def _cmd_dose(args) -> int:
    report = tid_survival(
        default_dose_profile(), args.inclination, args.limit_krad, args.years
    )
    print(f"mission_dose_krad={_fmt(report.dose_krad)}")
    print(f"survives={'true' if report.survives else 'false'}")
    print(f"lifetime_years={_fmt(report.lifetime_years)}")
    return 0


def _cmd_seu(args) -> int:
    for name in ("satellites", "devices", "rate", "days"):
        _check_range(f"--{name}", getattr(args, name), 0.0, error=ConfigError)
    print(_fmt(expected_seu_count(args.rate, args.devices, args.satellites, args.days)))
    return 0


def _cmd_tle_parse(args) -> int:
    records = read_tle_file(args.file)
    for rec in records:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            elements = tle_to_elements(rec)
        for w in caught:
            print(f"warning: {w.message}", file=sys.stderr)
        name = rec.name if rec.name else "-"
        print(
            f"{rec.catalog_number:5d} {name}: epoch={rec.epoch_year}/{rec.epoch_day:.8f} "
            f"inclination_deg={_fmt(rec.inclination_deg)} raan_deg={_fmt(rec.raan_deg)} "
            f"eccentricity={_fmt(rec.eccentricity)} "
            f"mean_motion={_fmt(rec.mean_motion_rev_per_day)} "
            f"altitude_km={elements.semi_major_axis_km - EARTH_RADIUS_KM:.1f}"
        )
    print(f"{len(records)} record(s) parsed", file=sys.stderr)
    return 0


def _cmd_rtt(args) -> int:
    _check_range("--alt-km", args.alt_km, 0.0, ends="(]", error=ConfigError)
    # on a spherical Earth the slant range depends only on altitude and elevation
    try:
        slant = slant_range_km(args.alt_km, args.elevation)
    except OverflowError:
        raise ConfigError(f"--alt-km is too large, got {args.alt_km}") from None
    rtt_s = 4.0 * propagation_delay(slant)
    print(f"slant_range_km={_fmt(slant)}")
    print(f"rtt_ms={_fmt(rtt_s * 1e3)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leofault",
        description="Deterministic LEO constellation simulator with fault injection",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run all fault models and write a trace")
    p_sim.add_argument("--config", required=True, help="JSON configuration file")
    p_sim.add_argument("--out", required=True, help="output trace path (JSON lines)")
    p_sim.set_defaults(func=_cmd_simulate)

    p_cdf = sub.add_parser("isl-cdf", help="grazing-altitude CDF over the config window")
    p_cdf.add_argument("--config", required=True, help="JSON configuration file")
    p_cdf.add_argument("--out", required=True, help="output CSV path")
    p_cdf.add_argument(
        "--per-link-min",
        action="store_true",
        help="one sample per link (its window minimum) instead of per link per step",
    )
    p_cdf.set_defaults(func=_cmd_isl_cdf)

    p_dose = sub.add_parser("dose", help="mission ionizing dose and lifetime")
    p_dose.add_argument("--inclination", type=_finite, required=True, help="degrees")
    p_dose.add_argument("--limit-krad", type=_finite, default=50.0)
    p_dose.add_argument("--years", type=_finite, default=5.0)
    p_dose.set_defaults(func=_cmd_dose)

    p_seu = sub.add_parser("seu", help="expected upset count for a fleet")
    p_seu.add_argument("--satellites", type=_integer, required=True)
    p_seu.add_argument("--devices", type=_integer, required=True)
    p_seu.add_argument("--rate", type=_finite, required=True, help="events/device/day")
    p_seu.add_argument("--days", type=_finite, required=True)
    p_seu.set_defaults(func=_cmd_seu)

    p_tle = sub.add_parser("tle", help="element-set utilities")
    tle_sub = p_tle.add_subparsers(dest="tle_command", required=True)
    p_tle_parse = tle_sub.add_parser("parse", help="parse and report a TLE file")
    p_tle_parse.add_argument("file", help="2-line or 3-line element-set file")
    p_tle_parse.set_defaults(func=_cmd_tle_parse)

    p_rtt = sub.add_parser("rtt", help="bent-pipe round-trip time")
    p_rtt.add_argument("--alt-km", type=_finite, required=True, help="satellite altitude")
    p_rtt.add_argument("--elevation", type=_finite, required=True, help="degrees")
    p_rtt.set_defaults(func=_cmd_rtt)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, TleFormatError, TraceParseError, ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
