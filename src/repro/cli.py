"""Command-line interface: ``savat`` (or ``python -m repro.cli``).

Subcommands cover the workflows a downstream user runs most:

* ``savat measure ADD LDM`` — one pairwise measurement;
* ``savat campaign --events ADD,DIV,LDM`` — a matrix campaign with CSV
  or JSON output; add ``--trace run.jsonl --metrics-out run.prom`` for
  a JSONL run trace and a Prometheus metrics export, and
  ``--progress``/``--no-progress`` to control the live status line;
* ``savat study --machines core2duo --distances 0.10,0.25,0.50`` — a
  grid of campaigns over one shared worker pool, producing each cell's
  kernel trace once for all distances of a machine;
* ``savat groups`` — cluster the events by SAVAT distance;
* ``savat audit victim.s`` — static leak audit of an assembly file;
* ``savat attack --key 10110100`` — the RSA-style attack demo.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.errors import ReproError


def _event_list(text: str) -> list[str]:
    """Parse a ``--events`` value into validated catalog event names.

    Tokens are comma-separated, surrounding whitespace is stripped, and
    empty tokens (``"ADD,,SUB"`` or a trailing comma) are dropped.  An
    unknown token — or a value with no tokens at all — fails argument
    parsing with a one-line error naming the bad token and the valid
    choices, instead of surfacing later as a mid-campaign lookup error.
    So does an event listed twice (``"ADD,add"``), which would make the
    matrix's rows ambiguous.
    """
    from repro.isa.events import EVENT_ORDER

    known = {name.upper(): name for name in EVENT_ORDER}
    choices = ", ".join(EVENT_ORDER)
    events: list[str] = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        resolved = known.get(token.upper())
        if resolved is None:
            raise argparse.ArgumentTypeError(
                f"unknown event {token!r}; choose from {choices}"
            )
        if resolved in events:
            raise argparse.ArgumentTypeError(f"event {resolved} listed twice")
        events.append(resolved)
    if not events:
        raise argparse.ArgumentTypeError(
            f"no event names given; choose from {choices}"
        )
    return events


def _distance(text: str) -> float:
    """Parse a distance argument into a validated positive, finite float.

    Mirrors the :func:`~repro.machines.calibrated.load_calibrated_machine`
    validation so a bad ``--distance`` fails argument parsing with a
    one-line message instead of surfacing later from the loader.
    """
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid distance {text!r}; expected meters, e.g. 0.25"
        )
    import math

    if not math.isfinite(value) or value <= 0:
        raise argparse.ArgumentTypeError(
            f"distance must be a positive, finite number of meters; got {text!r}"
        )
    return value


def _distance_list(text: str) -> list[float]:
    """Parse a ``--distances`` value into validated distances in meters.

    Same comma-list conventions as :func:`_event_list`: whitespace is
    stripped, empty tokens are dropped, and an empty list is an error.
    Two distances that name one calibration (equal to 4 decimals, the
    calibration key's precision, e.g. ``0.10,0.1``) are rejected too.
    """
    distances: list[float] = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        value = _distance(token)
        if any(round(value, 4) == round(seen, 4) for seen in distances):
            raise argparse.ArgumentTypeError(f"distance {token!r} listed twice")
        distances.append(value)
    if not distances:
        raise argparse.ArgumentTypeError(
            "no distances given; expected meters, e.g. 0.10,0.25,0.50"
        )
    return distances


def _machine_list(text: str) -> list[str]:
    """Parse a ``--machines`` value into distinct, validated catalog names."""
    from repro.machines.catalog import MACHINES

    known = {name.lower(): name for name in MACHINES}
    choices = ", ".join(sorted(MACHINES))
    machines: list[str] = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        resolved = known.get(token.lower())
        if resolved is None:
            raise argparse.ArgumentTypeError(
                f"unknown machine {token!r}; choose from {choices}"
            )
        if resolved in machines:
            raise argparse.ArgumentTypeError(f"machine {resolved} listed twice")
        machines.append(resolved)
    if not machines:
        raise argparse.ArgumentTypeError(
            f"no machine names given; choose from {choices}"
        )
    return machines


def _workers(text: str) -> int:
    """Parse a ``--workers`` value into a validated non-negative int.

    Mirrors the :func:`repro.core.executor._validate_workers` check so
    a bad count fails argument parsing with a one-line message instead
    of surfacing later from the executor (or, historically, as a pool
    traceback).
    """
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"workers must be a non-negative integer (0 means serial); "
            f"got {text!r}"
        )
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"workers must be a non-negative integer (0 means serial); "
            f"got {value}"
        )
    return value


def _add_execution_arguments(parser: argparse.ArgumentParser) -> None:
    """Execution flags shared by ``campaign``, ``study`` and ``groups``."""
    parser.add_argument(
        "--workers",
        type=_workers,
        default=len(os.sched_getaffinity(0)),
        metavar="N",
        help="worker processes for the cell fan-out, each running BLAS on "
        "its share of the CPUs (0 or 1: in-process; default: the usable "
        "CPUs, %(default)s here); a fully cached run starts no worker, "
        "and results are bit-identical either way",
    )
    parser.add_argument(
        "--cache-dir",
        default=os.environ.get("SAVAT_CACHE_DIR"),
        metavar="DIR",
        help="on-disk campaign result cache (default: $SAVAT_CACHE_DIR, "
        "no caching if unset)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the result cache even if --cache-dir or "
        "$SAVAT_CACHE_DIR is set",
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=2,
        metavar="N",
        help="per-cell retry budget for transient worker faults; retries "
        "replay the cell's original seed, so results are unchanged "
        "(default: 2)",
    )
    parser.add_argument(
        "--cell-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget per cell attempt; with --workers >= 2 a "
        "hung cell is abandoned and retried on a fresh worker "
        "(default: no budget)",
    )
    parser.add_argument(
        "--trace-cache-dir",
        default=os.environ.get("SAVAT_TRACE_CACHE_DIR"),
        metavar="DIR",
        help="keep kernel traces in DIR for later runs; samples are "
        "unchanged (default: $SAVAT_TRACE_CACHE_DIR, none if unset)",
    )


def _add_campaign_arguments(parser: argparse.ArgumentParser) -> None:
    """Fault and observability flags of ``campaign`` and ``groups``.

    An interrupted run resumes by being rerun against the same
    ``--cache-dir``: the cells it finished are cache hits.
    """
    parser.add_argument(
        "--inject-faults",
        default=os.environ.get("SAVAT_INJECT_FAULTS"),
        metavar="SPEC",
        help="debug: deterministically inject worker faults, e.g. "
        "'raise@0,1;hang@1,2:2;corrupt@2,0' "
        "(default: $SAVAT_INJECT_FAULTS)",
    )
    parser.add_argument(
        "--metrics-out",
        default=os.environ.get("SAVAT_METRICS_OUT"),
        metavar="FILE",
        help="write the campaign's metrics registry to FILE in Prometheus "
        "text format when the campaign ends (default: $SAVAT_METRICS_OUT)",
    )
    parser.add_argument(
        "--trace",
        default=os.environ.get("SAVAT_TRACE"),
        metavar="FILE",
        help="write a versioned JSONL span/event trace of the campaign "
        "to FILE (default: $SAVAT_TRACE)",
    )
    parser.add_argument(
        "--progress",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="force the live progress line on (--progress) or off "
        "(--no-progress); by default it renders only on a terminal",
    )


def _execution_kwargs(args: argparse.Namespace) -> dict:
    """Keyword arguments of :func:`_add_execution_arguments`' flags.

    The trace cache is built here, so a ``--trace-cache-dir`` that is
    not a directory fails before any calibration or cell.
    """
    from repro.core.trace_cache import TraceCache

    return {
        "workers": args.workers,
        "cache_dir": None if args.no_cache else args.cache_dir,
        "max_retries": args.max_retries,
        "cell_timeout_s": args.cell_timeout,
        "trace_cache": (
            TraceCache(args.trace_cache_dir) if args.trace_cache_dir else None
        ),
    }


def _campaign_execution_kwargs(args: argparse.Namespace) -> dict:
    """Executor keyword arguments of ``campaign`` and ``groups``."""
    from repro.core.faults import FaultPlan
    from repro.obs import CampaignObservability

    observability = CampaignObservability(
        trace=args.trace or None,
        metrics_out=args.metrics_out or None,
        progress=args.progress,
    )
    return {
        **_execution_kwargs(args),
        "fault_plan": (
            FaultPlan.from_spec(args.inject_faults) if args.inject_faults else None
        ),
        "observability": observability,
    }


def _add_measurement_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--method",
        choices=("analytic", "full", "synthesis"),
        default=os.environ.get("SAVAT_METHOD", "analytic"),
        help="measurement method: 'analytic' integrates the periodic "
        "waveform's band power directly; 'full' synthesizes each capture "
        "and runs it through the spectrum-analyzer model ('synthesis' is "
        "a legacy alias for 'full'; default: $SAVAT_METHOD or analytic)",
    )
    parser.add_argument(
        "--duration-s",
        default=os.environ.get("SAVAT_DURATION_S", 1.0),
        metavar="SECONDS",
        help="capture duration per repetition for the full method; "
        "durations below 1/RBW are stretched to 1/RBW "
        "(default: $SAVAT_DURATION_S or 1.0)",
    )


def _measurement_config(args: argparse.Namespace):
    """Build the campaign ``MeasurementConfig`` from CLI arguments."""
    from repro.core.savat import MeasurementConfig
    from repro.errors import ConfigurationError

    duration = args.duration_s
    try:
        duration = float(duration)
    except (TypeError, ValueError):
        raise ConfigurationError(
            f"invalid measurement duration {duration!r} (from --duration-s "
            "or $SAVAT_DURATION_S); expected a number of seconds"
        )
    return MeasurementConfig(method=args.method, duration_s=duration)


def _add_machine_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--machine",
        default="core2duo",
        help="catalog machine: core2duo, pentium3m, turionx2 (default: core2duo)",
    )
    parser.add_argument(
        "--distance",
        type=_distance,
        default=0.10,
        metavar="METERS",
        help="antenna distance in meters, positive and finite "
        "(default: 0.10)",
    )


def _command_measure(args: argparse.Namespace) -> int:
    from repro.core.savat import MeasurementConfig, measure_savat
    from repro.machines.calibrated import load_calibrated_machine

    machine = load_calibrated_machine(args.machine, args.distance)
    config = MeasurementConfig(
        alternation_frequency_hz=args.frequency,
        method=args.method,
    )
    result = measure_savat(machine, args.event_a, args.event_b, config)
    print(result)
    print(f"  achieved alternation frequency: {result.achieved_frequency_hz / 1e3:.2f} kHz")
    print(f"  inst_loop_count: {result.plan.spec.inst_loop_count}")
    print(f"  A/B pairs per second: {result.pairs_per_second:.3e}")
    return 0


def _campaign_summary_lines(campaign, machine) -> list[str]:
    """The human-readable campaign summary (table format).

    The execution footer comes from ``metadata["execution"]``; a matrix
    loaded from JSON written by an older release (or stripped metadata)
    may not carry that entry, in which case the table and the
    repetition statistics still print and only the footer is omitted.
    """
    from repro.analysis.visualize import matrix_table

    if campaign.repetitions < 2:
        spread = "std/mean over 1 repetition: undefined (a spread needs 2 or more)"
    else:
        spread = (
            f"std/mean over {campaign.repetitions} repetitions: "
            f"{campaign.std_over_mean():.3f}"
        )
    lines = [
        matrix_table(
            campaign.mean(),
            campaign.events,
            title=f"SAVAT (zJ) on {machine.describe()}:",
        ),
        f"\n{spread}",
    ]
    execution = campaign.metadata.get("execution")
    if execution is None:
        return lines
    lines.append(
        f"executed with {execution['workers']} worker(s) in "
        f"{execution['wall_seconds']:.1f} s; cache: "
        f"{execution['cache_hits']} hit(s), "
        f"{execution['cache_misses']} miss(es), "
        f"{execution['cells_simulated']} cell(s) simulated"
    )
    phase_totals = execution.get("phase_seconds") or {}
    if phase_totals:
        breakdown = ", ".join(
            f"{name} {seconds:.1f} s"
            for name, seconds in sorted(
                phase_totals.items(), key=lambda item: -item[1]
            )
        )
        lines.append(f"simulation time by phase: {breakdown}")
    lines.append(
        f"robustness: {execution['retries']} retry(ies), "
        f"{execution['timeouts']} timeout(s), "
        f"{execution['quarantined']} cache entry(ies) quarantined"
    )
    faults = execution.get("faults_injected") or {}
    if faults:
        fired = ", ".join(
            f"{kind} x{count}" for kind, count in sorted(faults.items())
        )
        lines.append(f"injected faults fired: {fired}")
    return lines


def _command_campaign(args: argparse.Namespace) -> int:
    from repro.core.campaign import run_campaign
    from repro.machines.calibrated import load_calibrated_machine

    execution = _campaign_execution_kwargs(args)
    machine = load_calibrated_machine(args.machine, args.distance)
    campaign = run_campaign(
        machine,
        config=_measurement_config(args),
        events=args.events,
        repetitions=args.repetitions,
        seed=args.seed,
        **execution,
    )
    if args.format == "csv":
        print(campaign.to_csv())
    elif args.format == "json":
        print(campaign.to_json())
    else:
        for line in _campaign_summary_lines(campaign, machine):
            print(line)
    return 0


def _command_study(args: argparse.Namespace) -> int:
    import json

    from repro.core.study import run_study

    result = run_study(
        args.machines,
        args.distances,
        events=args.events,
        config=_measurement_config(args),
        repetitions=args.repetitions,
        seed=args.seed,
        output_dir=args.output_dir,
        **_execution_kwargs(args),
    )
    if args.format == "json":
        print(
            json.dumps(
                {
                    "wall_seconds": result.wall_seconds,
                    "trace_cache": result.trace_cache,
                    "campaigns": [
                        json.loads(matrix.to_json()) for matrix in result.matrices
                    ],
                },
                indent=2,
            )
        )
        return 0
    print(
        f"study: {len(args.machines)} machine(s) x "
        f"{len(args.distances)} distance(s), "
        f"{len(result.matrices)} campaign(s) in {result.wall_seconds:.1f} s"
    )
    for matrix in result.matrices:
        execution = matrix.metadata["execution"]
        trace_cache = execution["trace_cache"]
        print(
            f"  {matrix.machine} @ {matrix.distance_m * 100:.0f} cm: "
            f"{execution['wall_seconds']:.1f} s, "
            f"trace cache {trace_cache['disk_hits']} hit(s) / "
            f"{trace_cache['misses']} miss(es)"
        )
    totals = result.trace_cache
    print(
        f"trace cache totals: {totals['disk_hits']} disk hit(s), "
        f"{totals['misses']} miss(es), {totals['stores']} store(s), "
        f"{totals['quarantined']} quarantined"
    )
    if args.output_dir:
        print(f"per-campaign traces, metrics, and matrices in {args.output_dir}")
    return 0


def _command_groups(args: argparse.Namespace) -> int:
    from repro.core.campaign import run_campaign
    from repro.core.clustering import find_groups, group_representatives
    from repro.machines.calibrated import load_calibrated_machine

    execution = _campaign_execution_kwargs(args)
    machine = load_calibrated_machine(args.machine, args.distance)
    campaign = run_campaign(
        machine,
        config=_measurement_config(args),
        repetitions=args.repetitions,
        seed=args.seed,
        **execution,
    )
    groups = find_groups(campaign, num_groups=args.num_groups)
    print(f"SAVAT clusters on {machine.describe()}:")
    for group in groups:
        print("  {" + ", ".join(sorted(group)) + "}")
    print("representatives:", ", ".join(group_representatives(groups)))
    return 0


def _command_audit(args: argparse.Namespace) -> int:
    from repro.analysis.code_audit import audit_program, audit_report
    from repro.core.matrix import SavatMatrix
    from repro.isa.assembler import assemble
    from repro.isa.events import EVENT_ORDER
    from repro.machines.reference_data import get_reference

    with open(args.source) as handle:
        program = assemble(handle.read(), name=args.source)
    reference = get_reference(args.machine, args.distance)
    matrix = SavatMatrix(
        EVENT_ORDER, reference.values_zj, reference.machine, reference.distance_m
    )
    risks = audit_program(
        program, matrix, memory_assumption=args.assume_memory
    )
    floor = float(matrix.symmetrized().diagonal().mean())
    print(audit_report(risks, floor))
    leaking = [risk for risk in risks if risk.savat_estimate_zj > 2 * floor]
    return 1 if leaking else 0


def _command_attack(args: argparse.Namespace) -> int:
    from repro.attacks.distinguisher import run_attack
    from repro.machines.calibrated import load_calibrated_machine

    key_bits = [int(bit) for bit in args.key]
    machine = load_calibrated_machine(args.machine, args.distance)
    result = run_attack(machine, key_bits, seed=args.seed)
    print(f"true key:      {''.join(map(str, result.true_bits))}")
    print(f"recovered key: {''.join(map(str, result.recovered_bits))}")
    print(f"bit accuracy:  {result.accuracy:.0%}{'  (exact)' if result.exact else ''}")
    return 0 if result.exact else 1


def _command_epi(args: argparse.Namespace) -> int:
    from repro.baselines.epi import epi_table
    from repro.machines.calibrated import load_calibrated_machine

    machine = load_calibrated_machine(args.machine, args.distance)
    table = epi_table(machine)
    print(f"energy per instruction on {machine.describe()}:")
    for name, result in sorted(table.items(), key=lambda item: -item[1].energy_j):
        print(
            f"  {name:>5}: {result.energy_pj:9.1f} pJ "
            f"({result.cycles_per_instruction:.0f} cycles/iteration)"
        )
    return 0


def _command_frequency(args: argparse.Namespace) -> int:
    from repro.core.frequency_selection import recommend_frequency
    from repro.em.environment import quiet_lab_environment

    recommendation = recommend_frequency(
        quiet_lab_environment(), args.low, args.high, args.step
    )
    print(recommendation)
    for frequency, noise in sorted(recommendation.surveyed.items()):
        marker = "  <- chosen" if frequency == recommendation.frequency_hz else ""
        print(f"  {frequency / 1e3:7.1f} kHz: {noise:.3e} W{marker}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="savat",
        description="SAVAT side-channel measurement on a simulated bench "
        "(reproduction of Callan/Zajic/Prvulovic, MICRO 2014)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    measure = subparsers.add_parser("measure", help="measure one A/B pairing")
    measure.add_argument("event_a", help="event A (e.g. ADD)")
    measure.add_argument("event_b", help="event B (e.g. LDM)")
    _add_machine_arguments(measure)
    measure.add_argument("--frequency", type=float, default=80e3, help="alternation Hz")
    measure.add_argument(
        "--method",
        choices=("analytic", "full", "synthesis"),
        default="analytic",
        help="measurement method ('synthesis' is a legacy alias for 'full')",
    )
    measure.set_defaults(handler=_command_measure)

    campaign = subparsers.add_parser("campaign", help="run a pairwise matrix campaign")
    _add_machine_arguments(campaign)
    campaign.add_argument(
        "--events",
        type=_event_list,
        default=None,
        metavar="A,B,...",
        help="comma-separated event subset (validated against the catalog; "
        "default: all eleven events)",
    )
    campaign.add_argument("--repetitions", type=int, default=3)
    campaign.add_argument("--seed", type=int, default=0)
    campaign.add_argument("--format", choices=("table", "csv", "json"), default="table")
    _add_measurement_arguments(campaign)
    _add_execution_arguments(campaign)
    _add_campaign_arguments(campaign)
    campaign.set_defaults(handler=_command_campaign)

    study = subparsers.add_parser(
        "study",
        help="run a machines x distances grid of campaigns over one "
        "shared worker pool, each cell's trace produced once per machine",
    )
    study.add_argument(
        "--machines",
        type=_machine_list,
        default=["core2duo"],
        metavar="M,N,...",
        help="comma-separated catalog machines (default: core2duo)",
    )
    study.add_argument(
        "--distances",
        type=_distance_list,
        default=[0.10, 0.50],
        metavar="D,E,...",
        help="comma-separated antenna distances in meters, each positive "
        "and finite (default: 0.10,0.50)",
    )
    study.add_argument(
        "--events",
        type=_event_list,
        default=None,
        metavar="A,B,...",
        help="comma-separated event subset (validated against the catalog; "
        "default: all eleven events)",
    )
    study.add_argument("--repetitions", type=int, default=3)
    study.add_argument("--seed", type=int, default=0)
    study.add_argument("--format", choices=("table", "json"), default="table")
    _add_measurement_arguments(study)
    _add_execution_arguments(study)
    study.add_argument(
        "--output-dir",
        default=None,
        metavar="DIR",
        help="write each campaign's JSONL trace, Prometheus metrics, and "
        "matrix JSON under DIR (inputs for python -m repro.obs.check)",
    )
    study.set_defaults(handler=_command_study)

    groups = subparsers.add_parser("groups", help="cluster events by SAVAT")
    _add_machine_arguments(groups)
    groups.add_argument("--num-groups", type=int, default=4)
    groups.add_argument("--repetitions", type=int, default=2)
    groups.add_argument("--seed", type=int, default=0)
    _add_measurement_arguments(groups)
    _add_execution_arguments(groups)
    _add_campaign_arguments(groups)
    groups.set_defaults(handler=_command_groups)

    audit = subparsers.add_parser("audit", help="static leak audit of an .s file")
    audit.add_argument("source", help="assembly source file")
    _add_machine_arguments(audit)
    audit.add_argument(
        "--assume-memory",
        default="MEMORY",
        choices=("MEMORY", "L2", "L1"),
        help="cache level assumed for memory accesses (default: MEMORY)",
    )
    audit.set_defaults(handler=_command_audit)

    attack = subparsers.add_parser("attack", help="EM key-extraction demo")
    attack.add_argument("--key", default="1011010011", help="secret key bits")
    _add_machine_arguments(attack)
    attack.add_argument("--seed", type=int, default=0)
    attack.set_defaults(handler=_command_attack)

    epi = subparsers.add_parser(
        "epi", help="energy-per-instruction baseline measurement"
    )
    _add_machine_arguments(epi)
    epi.set_defaults(handler=_command_epi)

    frequency = subparsers.add_parser(
        "frequency", help="survey the environment for a quiet alternation frequency"
    )
    frequency.add_argument("--low", type=float, default=40e3)
    frequency.add_argument("--high", type=float, default=200e3)
    frequency.add_argument("--step", type=float, default=5e3)
    frequency.set_defaults(handler=_command_frequency)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
