"""Command-line entry point: ``python -m repro <experiment> [...]``.

Runs one or more of the paper's experiments and prints their text
renderings.  ``all`` runs everything in paper order.  Uniform overrides
(``--seed``, ``--cap-w``, ``--objective``, ``--cache-dir``) apply to every
selected experiment whose driver supports them (see
:class:`repro.experiments.registry.ExperimentConfig`).

``python -m repro serve`` starts the online co-scheduling daemon instead
(see :mod:`repro.service` and ``docs/SERVICE.md``): an asyncio front end
over tenant-sharded workers that listens for newline-delimited JSON job
submissions, schedules them live, reacts to power-cap events, and — with
``--durable`` — journals every transition through :mod:`repro.store` so
acknowledged work survives a crash.

``python -m repro schedule`` computes one co-schedule from the command
line — any registry method, any objective (``--objective
makespan|energy|edp|flow_time|makespan_energy``) — and prints the queues
plus predicted scores.  With ``--fleet-nodes`` the job set is placed and
scheduled across a heterogeneous fleet (see ``docs/FLEET.md``).

``python -m repro simulate`` schedules a job set and *executes* it on the
event-driven engine (:func:`repro.engine.run`) — fixed replay or an
open-system arrival trace with an online policy — printing measured
makespan, energy, and deadline misses (``--json`` emits the full
:class:`~repro.engine.sim.ExecutionResult` record).  ``--fleet-nodes``
executes across per-node simulators (:func:`repro.engine.run_fleet`).

``python -m repro analyze`` runs the repo's static-analysis pack (the
REP001-REP011 AST lint rules of :mod:`repro.analysis.lint`, including
the units-aware dims dataflow checker) over source trees and exits
non-zero on violations — the same gate CI runs.

Exit codes: 0 success, 1 lint violations (``analyze``), 2
usage/infeasibility (an unknown experiment, or a power cap no frequency
setting can satisfy).
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from repro.errors import InfeasibleCapError
from repro.experiments.registry import (
    EXPERIMENTS,
    ExperimentConfig,
    run_experiment,
)
from repro.objective import Objective
from repro.perf.diskcache import CACHE_DIR_ENV

#: Every objective the registry understands.
_OBJECTIVES = tuple(o.value for o in Objective)


def _add_fleet_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--fleet-nodes", default=None, dest="fleet_nodes", metavar="SPEC",
        help=(
            "heterogeneous fleet spec: comma-separated "
            "name[:speed[:power[:cap]]] descriptors (e.g. "
            "'big:2.0:1.3,small:0.6:0.5'), or a bare count for uniform "
            "nodes; capless nodes need --fleet-budget"
        ),
    )
    parser.add_argument(
        "--fleet-budget", type=float, default=None, dest="fleet_budget",
        metavar="W",
        help="shared fleet power budget in watts, split over capless nodes "
        "proportionally to their power rating",
    )


def _parse_fleet(args):
    """Resolve --fleet-nodes/--fleet-budget into a Fleet (or None)."""
    if args.fleet_nodes is None:
        if args.fleet_budget is not None:
            raise ValueError("--fleet-budget needs --fleet-nodes")
        return None
    from repro.core.fleet import Fleet

    return Fleet.parse(args.fleet_nodes, budget_w=args.fleet_budget)


def _serve_parser() -> argparse.ArgumentParser:
    from repro.core.api import scheduler_names
    from repro.hardware.calibration import DEFAULT_POWER_CAP_W

    parser = argparse.ArgumentParser(
        prog="repro serve",
        description=(
            "Run the online co-scheduling daemon (newline-delimited JSON "
            "protocol; see docs/API.md)."
        ),
    )
    parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: loopback)"
    )
    parser.add_argument(
        "--port", type=int, default=0,
        help="TCP port; 0 picks an ephemeral port (announced on stdout)",
    )
    parser.add_argument(
        "--method", default="hcs", choices=scheduler_names(),
        help="scheduler consulted when a processor idles (default: hcs)",
    )
    parser.add_argument(
        "--cap-w", type=float, default=DEFAULT_POWER_CAP_W, dest="cap_w",
        help="initial power cap in watts (changeable at runtime via set_cap)",
    )
    parser.add_argument(
        "--queue-capacity", type=int, default=64, dest="queue_capacity",
        help="bounded submission queue size (backpressure beyond it)",
    )
    parser.add_argument(
        "--objective", default="makespan", choices=_OBJECTIVES,
        help="what the daemon's scheduler optimizes (default: makespan)",
    )
    parser.add_argument(
        "--seed", type=int, default=None,
        help="seed forwarded to stochastic scheduling methods",
    )
    parser.add_argument(
        "--durable", default=None, metavar="DIR", dest="durable",
        help=(
            "directory for the durable job store (one SQLite event log per "
            "shard); acknowledged submissions survive a crash and are "
            "requeued on restart"
        ),
    )
    parser.add_argument(
        "--shards", type=int, default=1,
        help="independent scheduling shards; sessions route by tenant",
    )
    parser.add_argument(
        "--worker-mode", default="inline", choices=("inline", "process"),
        dest="worker_mode",
        help="run shards in the listener process or in worker processes",
    )
    parser.add_argument(
        "--backlog", type=int, default=0,
        help=(
            "per-tenant backlog capacity: acknowledged submissions held "
            "past queue capacity instead of backpressured (default: 0, off)"
        ),
    )
    parser.add_argument(
        "--tenant-quota", type=int, default=None, dest="tenant_quota",
        help="max live (queued+held+running) jobs per tenant (default: none)",
    )
    _add_fleet_arguments(parser)
    return parser


def _serve(argv: list[str]) -> int:
    args = _serve_parser().parse_args(argv)
    from repro.service.async_server import serve_async

    try:
        fleet = _parse_fleet(args)
    except ValueError as exc:
        print(f"bad fleet spec: {exc}", file=sys.stderr)
        return 2
    return serve_async(
        args.host,
        args.port,
        method=args.method,
        cap_w=args.cap_w,
        objective=args.objective,
        queue_capacity=args.queue_capacity,
        seed=args.seed,
        shards=args.shards,
        worker_mode=args.worker_mode,
        durable_dir=args.durable,
        tenant_quota=args.tenant_quota,
        backlog_capacity=args.backlog,
        fleet=fleet,
    )


def _schedule_parser() -> argparse.ArgumentParser:
    from repro.core.api import scheduler_names
    from repro.hardware.calibration import DEFAULT_POWER_CAP_W

    parser = argparse.ArgumentParser(
        prog="repro schedule",
        description=(
            "Compute one co-schedule for a set of calibrated programs and "
            "print the processor queues plus predicted scores."
        ),
    )
    parser.add_argument(
        "--method", default="hcs", choices=scheduler_names(),
        help="scheduling method from the registry (default: hcs)",
    )
    parser.add_argument(
        "--cap-w", type=float, default=DEFAULT_POWER_CAP_W, dest="cap_w",
        help="power cap in watts",
    )
    parser.add_argument(
        "--objective", default="makespan", choices=_OBJECTIVES,
        help="what the method optimizes (default: makespan)",
    )
    parser.add_argument(
        "--programs", default=None, metavar="NAMES",
        help="comma-separated calibrated program names (default: all eight)",
    )
    parser.add_argument(
        "--seed", type=int, default=None,
        help="seed forwarded to stochastic methods",
    )
    parser.add_argument(
        "--portfolio-members", default=None, metavar="NAMES",
        dest="portfolio_members",
        help="comma-separated member methods raced by --method portfolio "
        "(default: hcs,hcs+,genetic)",
    )
    parser.add_argument(
        "--portfolio-deadline", type=float, default=None, metavar="SECONDS",
        dest="portfolio_deadline",
        help="shared wall-clock budget for --method portfolio: members "
        "past the deadline are skipped (the first always runs)",
    )
    parser.add_argument(
        "--portfolio-eval-budget", type=int, default=None, metavar="N",
        dest="portfolio_eval_budget",
        help="shared schedule-evaluation budget for --method portfolio",
    )
    _add_fleet_arguments(parser)
    return parser


def _portfolio_opts(args) -> dict:
    """Portfolio budget options from CLI flags (only for that method)."""
    if args.method != "portfolio":
        for flag in ("portfolio_members", "portfolio_deadline",
                     "portfolio_eval_budget"):
            if getattr(args, flag) is not None:
                print(
                    f"--{flag.replace('_', '-')} requires --method portfolio",
                    file=sys.stderr,
                )
                raise SystemExit(2)
        return {}
    opts: dict = {}
    if args.portfolio_members is not None:
        opts["members"] = tuple(
            n.strip() for n in args.portfolio_members.split(",") if n.strip()
        )
    if args.portfolio_deadline is not None:
        opts["deadline_s"] = args.portfolio_deadline
    if args.portfolio_eval_budget is not None:
        opts["eval_budget"] = args.portfolio_eval_budget
    return opts


_SCORE_UNITS = {
    "makespan": "s",
    "energy": "J",
    "edp": "J*s",
    "flow_time": "s",
    "makespan_energy": "s + J",
}


def _schedule_fleet(args, jobs, fleet) -> int:
    """The --fleet-nodes branch of ``repro schedule``."""
    from repro.core.context import SchedulingContext
    from repro.core.fleetsched import fleet_schedule

    ctx = SchedulingContext.build(
        jobs,
        fleet=fleet,
        objective=args.objective,
        seed=args.seed,
    )
    result = fleet_schedule(ctx, method=args.method, **_portfolio_opts(args))
    print(f"method    : {result.method}")
    print(f"objective : {result.objective.value}")
    print("fleet     :")
    for line in fleet.describe().splitlines():
        print(f"  {line}")
    print(result.describe())
    print(f"predicted makespan_s : {result.predicted_makespan_s:.4f}")
    print(f"predicted energy_j   : {result.predicted_energy_j:.2f}")
    print(f"predicted flow_s     : {result.predicted_flow_s:.4f}")
    unit = _SCORE_UNITS[result.objective.value]
    print(f"predicted {result.objective.value}"
          f" : {result.predicted_score:.4f} {unit}")
    return 0


def _chosen_programs(spec: str | None):
    """Resolve a comma-separated program list (``None`` = all calibrated)."""
    from repro.workload import rodinia_programs

    programs = {p.name: p for p in rodinia_programs()}
    if spec is None:
        return list(programs.values())
    names = [n.strip() for n in spec.split(",") if n.strip()]
    unknown = sorted(set(names) - set(programs))
    if unknown:
        print(
            f"unknown program(s): {', '.join(unknown)}; calibrated: "
            + ", ".join(sorted(programs)),
            file=sys.stderr,
        )
        return None
    return [programs[n] for n in names]


def _too_many_for_brute(method: str, jobs) -> bool:
    """Report (and refuse) a brute-force search over too many jobs.

    Checked before the model is built: enumeration past the limit is
    refused anyway, and profiling first would only delay the error.
    """
    from repro.core.bruteforce import MAX_BRUTE_FORCE_JOBS

    if method != "brute" or len(jobs) <= MAX_BRUTE_FORCE_JOBS:
        return False
    print(
        f"--method brute enumerates at most {MAX_BRUTE_FORCE_JOBS} jobs "
        f"(got {len(jobs)}); choose fewer with --programs",
        file=sys.stderr,
    )
    return True


def _schedule(argv: list[str]) -> int:
    from repro.core.api import schedule
    from repro.workload import make_jobs

    args = _schedule_parser().parse_args(argv)
    chosen = _chosen_programs(args.programs)
    if chosen is None:
        return 2
    jobs = make_jobs(chosen)
    try:
        fleet = _parse_fleet(args)
    except ValueError as exc:
        print(f"bad fleet spec: {exc}", file=sys.stderr)
        return 2
    if fleet is None and _too_many_for_brute(args.method, jobs):
        return 2
    if fleet is not None:
        return _schedule_fleet(args, jobs, fleet)
    result = schedule(
        jobs,
        method=args.method,
        cap_w=args.cap_w,
        objective=args.objective,
        seed=args.seed,
        **_portfolio_opts(args),
    )
    sched = result.schedule
    print(f"method    : {result.method}")
    if result.method == "portfolio":
        print(f"winner    : {result.details['winner']}")
        for name, entry in result.details["members"].items():
            parts = ", ".join(
                f"{k}={v:.4f}" if isinstance(v, float) else f"{k}={v}"
                for k, v in entry.items()
            )
            print(f"  member {name}: {parts}")
    print(f"objective : {result.objective.value}")
    print(f"cap_w     : {args.cap_w:g}")
    print("cpu queue : " + (
        " -> ".join(j.uid for j in sched.cpu_queue) or "(empty)"
    ))
    print("gpu queue : " + (
        " -> ".join(j.uid for j in sched.gpu_queue) or "(empty)"
    ))
    if sched.solo_tail:
        print("solo tail : " + ", ".join(
            f"{j.uid}@{k.name.lower()}" for j, k in sched.solo_tail
        ))
    print(f"predicted makespan_s : {result.predicted_makespan_s:.4f}")
    if result.objective.value != "makespan":
        unit = _SCORE_UNITS[result.objective.value]
        print(
            f"predicted {result.objective.value}"
            f" : {result.predicted_score:.4f} {unit}"
        )
    return 0


def _simulate_parser() -> argparse.ArgumentParser:
    from repro.core.api import scheduler_names
    from repro.hardware.calibration import DEFAULT_POWER_CAP_W

    parser = argparse.ArgumentParser(
        prog="repro simulate",
        description=(
            "Schedule a job set and execute it on the event-driven engine "
            "(engine.run()): fixed co-schedule replay, or an open-system "
            "arrival trace placed by an online policy."
        ),
    )
    parser.add_argument(
        "--mode", default="fixed", choices=("fixed", "arrivals"),
        help="fixed: compute a co-schedule with --method and replay it; "
        "arrivals: jobs arrive every --arrive-every seconds and --policy "
        "places them (default: fixed)",
    )
    parser.add_argument(
        "--method", default="hcs", choices=scheduler_names(),
        help="scheduling method for fixed mode (default: hcs)",
    )
    parser.add_argument(
        "--policy", default="fifo", choices=("fifo", "hcs"),
        help="online placement policy for arrivals mode (default: fifo)",
    )
    parser.add_argument(
        "--cap-w", type=float, default=DEFAULT_POWER_CAP_W, dest="cap_w",
        help="power cap in watts",
    )
    parser.add_argument(
        "--objective", default="makespan", choices=_OBJECTIVES,
        help="scheduling objective (default: makespan)",
    )
    parser.add_argument(
        "--programs", default=None, metavar="NAMES",
        help="comma-separated calibrated program names (default: all eight)",
    )
    parser.add_argument(
        "--seed", type=int, default=None,
        help="seed forwarded to stochastic methods",
    )
    parser.add_argument(
        "--arrive-every", type=float, default=10.0, dest="arrive_every",
        metavar="S", help="inter-arrival gap in arrivals mode (default: 10)",
    )
    parser.add_argument(
        "--deadline", type=float, default=None, metavar="S",
        help="per-job relative deadline: each job must finish within S "
        "seconds of its arrival (misses are counted, not enforced)",
    )
    parser.add_argument(
        "--until-s", type=float, default=None, dest="until_s", metavar="S",
        help="stop the simulation at this virtual time (default: run to "
        "completion)",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="print the full ExecutionResult record as JSON",
    )
    _add_fleet_arguments(parser)
    return parser


def _simulate_fleet(args, jobs, fleet) -> int:
    """The --fleet-nodes branch of ``repro simulate`` (fixed mode)."""
    import json

    from repro.core.context import SchedulingContext
    from repro.engine import run_fleet

    if args.mode != "fixed":
        print(
            "--fleet-nodes currently supports --mode fixed only",
            file=sys.stderr,
        )
        return 2
    ctx = SchedulingContext.build(
        jobs,
        fleet=fleet,
        objective=args.objective,
        seed=args.seed,
    )
    execution = run_fleet(ctx, method=args.method)
    if args.json:
        print(json.dumps(execution.to_dict(), indent=2, sort_keys=True))
        return 0
    print(f"mode      : fixed ({args.method}), {len(fleet)} fleet nodes")
    print(f"fleet cap : {fleet.total_cap_w():g} W")
    print(f"jobs      : {len(jobs)}")
    for entry in execution.entries:
        print(
            f"  {entry.node:<8} makespan {entry.makespan_s:8.3f} s  "
            f"energy {entry.energy_j:9.2f} J  "
            f"({len(entry.result.completions)} jobs)"
        )
    print(f"makespan_s    : {execution.makespan_s:.4f}")
    print(f"energy_j      : {execution.energy_j:.2f}")
    print(f"flow_s        : {execution.flow_s:.4f}")
    print(
        f"{execution.objective:<14}: "
        f"{execution.score(execution.objective):.4f}"
    )
    return 0


def _simulate(argv: list[str]) -> int:
    import json
    import math

    from repro.core.api import schedule
    from repro.core.context import SchedulingContext
    from repro.core.online import FifoOnlinePolicy, HcsOnlinePolicy
    from repro.engine.sim import JobSpec, Scenario, run
    from repro.workload import make_jobs

    args = _simulate_parser().parse_args(argv)
    chosen = _chosen_programs(args.programs)
    if chosen is None:
        return 2
    jobs = make_jobs(chosen)
    until_s = math.inf if args.until_s is None else args.until_s

    try:
        fleet = _parse_fleet(args)
    except ValueError as exc:
        print(f"bad fleet spec: {exc}", file=sys.stderr)
        return 2
    if (
        fleet is None
        and args.mode == "fixed"
        and _too_many_for_brute(args.method, jobs)
    ):
        return 2
    if fleet is not None:
        return _simulate_fleet(args, jobs, fleet)
    ctx = SchedulingContext.build(
        jobs,
        cap_w=args.cap_w,
        objective=args.objective,
        seed=args.seed,
    )
    if args.mode == "fixed":
        planned = schedule(
            jobs,
            method=args.method,
            cap_w=args.cap_w,
            objective=args.objective,
            predictor=ctx.predictor,
            seed=args.seed,
        )
        specs = tuple(
            JobSpec(job=j, arrival_s=0.0, deadline_s=args.deadline)
            for j in jobs
        ) if args.deadline is not None else ()
        scenario = Scenario.from_schedule(
            planned.schedule, jobs=specs, until_s=until_s
        )
        execution = run(ctx, scenario, governor=planned.governor)
    else:
        specs = tuple(
            JobSpec(
                job=j,
                arrival_s=i * args.arrive_every,
                deadline_s=(
                    None
                    if args.deadline is None
                    else i * args.arrive_every + args.deadline
                ),
            )
            for i, j in enumerate(jobs)
        )
        policy = (
            FifoOnlinePolicy()
            if args.policy == "fifo"
            else HcsOnlinePolicy(ctx)
        )
        scenario = Scenario(jobs=specs, until_s=until_s)
        execution = run(ctx, scenario, policy=policy)

    if args.json:
        print(json.dumps(execution.to_dict(), indent=2, sort_keys=True))
        return 0

    label = args.method if args.mode == "fixed" else f"online:{args.policy}"
    print(f"mode      : {args.mode} ({label})")
    print(f"cap_w     : {args.cap_w:g}")
    print(f"jobs      : {len(jobs)} ({len(execution.completions)} completed)")
    print(f"makespan_s    : {execution.makespan_s:.4f}")
    print(f"energy_j      : {execution.energy_j:.2f}")
    print(f"mean_power_w  : {execution.mean_power_w:.3f}")
    print(f"cpu_busy_s    : {execution.cpu_busy_s:.4f}")
    print(f"gpu_busy_s    : {execution.gpu_busy_s:.4f}")
    if args.deadline is not None:
        print(f"deadline miss : {execution.deadline_misses}")
        for miss in execution.violations:
            state = (
                "unfinished"
                if miss.finish_s is None
                else f"finished {miss.finish_s:.2f}s"
            )
            print(
                f"  {miss.job}: {state}, {miss.lateness_s:.2f}s late "
                f"(deadline {miss.deadline_s:g}s)"
            )
    return 0


def _analyze(argv: list[str]) -> int:
    from repro.analysis.lint.__main__ import main as lint_main

    return lint_main(argv)


def _experiments_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Regenerate the tables and figures of 'Co-Run Scheduling with "
            "Power Cap on Integrated CPU-GPU Systems' (IPDPS 2017), or run "
            "the online co-scheduling daemon ('repro serve --help')."
        ),
    )
    parser.add_argument(
        "experiments",
        nargs="+",
        metavar="EXPERIMENT",
        help=f"one or more of: {', '.join(EXPERIMENTS)}, or 'all'; "
        "or the 'serve' / 'schedule' / 'simulate' / 'analyze' subcommands",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="print only headline metrics"
    )
    parser.add_argument(
        "--seed", type=int, default=None,
        help="override the RNG seed of seed-aware experiments",
    )
    parser.add_argument(
        "--cap-w", type=float, default=None, dest="cap_w",
        help="override the power cap (watts) of cap-aware experiments",
    )
    parser.add_argument(
        "--objective", default=None, choices=_OBJECTIVES,
        help="override the scheduling objective of objective-aware "
        "experiments",
    )
    parser.add_argument(
        "--cache-dir", default=None, dest="cache_dir", metavar="DIR",
        help=f"persist characterization/profiles to DIR (sets {CACHE_DIR_ENV})",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # An infeasible power cap from any subcommand or experiment ends the
    # run with one stderr line and exit code 2, never a traceback; an
    # experiment's line names it.
    prefix = ""
    try:
        if argv and argv[0] in _SUBCOMMANDS:
            return _SUBCOMMANDS[argv[0]](argv[1:])
        args = _experiments_parser().parse_args(argv)

        if args.cache_dir is not None:
            os.environ[CACHE_DIR_ENV] = args.cache_dir
        config = ExperimentConfig(
            seed=args.seed,
            cap_w=args.cap_w,
            objective=args.objective,
        )

        names = list(EXPERIMENTS) if "all" in args.experiments else args.experiments
        seen = set()
        for name in names:
            driver = EXPERIMENTS.get(name)
            if driver is not None and driver in seen:  # fig5/fig6 share a driver
                continue
            if driver is not None:
                seen.add(driver)
            prefix = f"{name}: "
            try:
                t0 = time.perf_counter()
                result = run_experiment(name, config=config)
                elapsed = time.perf_counter() - t0
            except KeyError as exc:
                print(exc.args[0], file=sys.stderr)
                return 2
            if args.quiet:
                print(f"[{result.name}] " + "  ".join(
                    f"{k}={v:.4g}" for k, v in result.headline.items()
                ))
            else:
                print(result.render())
                print(f"\n({name} completed in {elapsed:.1f}s)\n")
        return 0
    except InfeasibleCapError as exc:
        cap = f" (cap {exc.cap_w} W)" if exc.cap_w is not None else ""
        print(f"{prefix}infeasible power cap{cap}: {exc}", file=sys.stderr)
        return 2


_SUBCOMMANDS = {
    "serve": _serve,
    "schedule": _schedule,
    "simulate": _simulate,
    "analyze": _analyze,
}


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
