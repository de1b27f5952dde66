"""Command-line entry point: regenerate any of the paper's experiments,
or trace/profile a single workload through the telemetry layer.

Usage::

    snake-repro list                 # show available experiments
    snake-repro fig16                # coverage of the ten mechanisms
    snake-repro fig23 --scale 0.5    # faster, smaller traces
    snake-repro all                  # everything (slow)

    snake-repro trace lps            # Chrome-trace JSON + per-PC metrics
    snake-repro profile histo        # per-PC / per-warp metric tables

    snake-repro sweep --jobs 4 --timeout 600 \
        --checkpoint sweep.jsonl     # fault-tolerant parallel grid
    snake-repro sweep --resume --checkpoint sweep.jsonl
    snake-repro sweep --sanitize     # audit conservation invariants too
    snake-repro sweep --lease 10 --drain-timeout 60   # lease tuning; ^C
                                     # drains in-flight jobs gracefully

    snake-repro chaos --seed 0       # seeded fault injection + sanitizer
    snake-repro chaos --runner       # chaos the sweep scheduler itself:
                                     # worker kills, heartbeat stalls,
                                     # transport faults, SIGKILL+--resume;
                                     # results must be byte-identical

    snake-repro lint --baseline      # simulator-aware static analysis
    snake-repro lint --rule SL101    # one rule; --json for CI tooling

    snake-repro serve --data-dir d   # online prediction service (WAL +
                                     # snapshots; SIGTERM drains cleanly)
    snake-repro serve --loadgen --clients 1000   # replay the suite as
                                     # concurrent clients; certifies the
                                     # zero-silent-drop contract
    snake-repro serve --chaos        # misbehaving clients + SIGKILL +
                                     # torn journal; recovery certificate

(The ``repro`` entry point is an alias of ``snake-repro``.)  ``trace``
and ``profile`` run one workload with the :mod:`repro.obs` telemetry bus
attached — see ``docs/OBSERVABILITY.md`` for the full walkthrough.
``sweep`` runs the comparison grid through the crash-isolated
:mod:`repro.runner`; ``chaos`` runs seeded fault plans through the
simulator with the conservation sanitizer armed and asserts the
demand-visible outcome matches a fault-free run — see
``docs/ROBUSTNESS.md``.  The simulator's own speed is measured by
``python -m perfbench`` — see ``docs/PERFORMANCE.md``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict

from repro.analysis import experiments, report


def _series(fn, title, percent=True):
    def run(scale: float, seed: int) -> str:
        return report.render_series(title, fn(scale=scale, seed=seed), percent=percent)

    return run


def _matrix(fn, title, percent=True):
    def run(scale: float, seed: int) -> str:
        return report.render_matrix(title, fn(scale=scale, seed=seed), percent=percent)

    return run


def _fig20(scale: float, seed: int) -> str:
    return report.render_sweep(
        "Fig 20: coverage vs Tail entries (LRU+popcount eviction)",
        experiments.figure20(scale=scale, seed=seed),
        x_label="entries",
        percent=True,
    )


def _fig21(scale: float, seed: int) -> str:
    return report.render_sweep(
        "Fig 21: hardware cost (bytes/SM) vs Tail entries",
        experiments.figure21(),
        x_label="entries",
    )


def _fig22(scale: float, seed: int) -> str:
    return report.render_sweep(
        "Fig 22: coverage vs Tail entries (popcount-only eviction)",
        experiments.figure22(scale=scale, seed=seed),
        x_label="entries",
        percent=True,
    )


def _fig23(scale: float, seed: int) -> str:
    return report.render_pairs(
        "Fig 23: throttling interval trade-off",
        experiments.figure23(scale=scale, seed=seed),
        labels=["coverage", "accuracy"],
        x_label="cycles",
        percent=True,
    )


def _fig24(scale: float, seed: int) -> str:
    data = experiments.figure24(scale=scale, seed=seed)
    flat = {
        frac: (
            values["tiled"][0],
            values["tiled"][1],
            values["snake+tiled"][0],
            values["snake+tiled"][1],
        )
        for frac, values in data.items()
    }
    return report.render_pairs(
        "Fig 24: tiling with/without Snake (vs untiled baseline)",
        flat,
        labels=["tiled-ipc", "tiled-en", "fused-ipc", "fused-en"],
        x_label="tile",
    )


def _table3(scale: float, seed: int) -> str:
    data = experiments.table3()
    lines = ["Table 3: Snake's table parameters", "-" * 40]
    for name, fields in data.items():
        lines.append(
            "%-5s %3d bytes/entry x %3d entries = %4d bytes"
            % (name, fields["bytes_per_entry"], fields["entries"], fields["total_bytes"])
        )
    return "\n".join(lines)


EXPERIMENTS: Dict[str, Callable[[float, int], str]] = {
    "fig3": _series(experiments.figure3, "Fig 3: reservation-fail rate (baseline)"),
    "fig4": _series(experiments.figure4, "Fig 4: NoC bandwidth utilization (baseline)"),
    "fig5": _series(experiments.figure5, "Fig 5: memory-stall fraction (baseline)"),
    "fig6": _matrix(experiments.figure6, "Fig 6: coverage vs the Ideal prefetcher"),
    "fig9": _series(experiments.figure9, "Fig 9: chain PC_ld fraction"),
    "fig10": _series(
        experiments.figure10, "Fig 10: max chain repetition", percent=False
    ),
    "fig11": _matrix(experiments.figure11, "Fig 11: chain- vs MTA-prefetchable"),
    "fig16": _matrix(experiments.figure16, "Fig 16: prefetch coverage"),
    "fig17": _matrix(experiments.figure17, "Fig 17: prefetch accuracy (timely)"),
    "fig18": _matrix(
        experiments.figure18, "Fig 18: IPC vs baseline", percent=False
    ),
    "fig19": _matrix(
        experiments.figure19, "Fig 19: energy vs baseline", percent=False
    ),
    "fig20": _fig20,
    "fig21": _fig21,
    "fig22": _fig22,
    "fig23": _fig23,
    "fig24": _fig24,
    "fig25": _matrix(experiments.figure25, "Fig 25: L1 hit rate"),
    "table3": _table3,
}


#: Raw (un-rendered) data producers for --csv/--json export.
RAW_EXPERIMENTS = {
    "fig3": experiments.figure3,
    "fig4": experiments.figure4,
    "fig5": experiments.figure5,
    "fig6": experiments.figure6,
    "fig9": experiments.figure9,
    "fig10": experiments.figure10,
    "fig11": experiments.figure11,
    "fig16": experiments.figure16,
    "fig17": experiments.figure17,
    "fig18": experiments.figure18,
    "fig19": experiments.figure19,
    "fig20": lambda scale, seed: experiments.figure20(scale=scale, seed=seed),
    "fig22": lambda scale, seed: experiments.figure22(scale=scale, seed=seed),
    "fig23": lambda scale, seed: experiments.figure23(scale=scale, seed=seed),
    "fig24": lambda scale, seed: experiments.figure24(scale=scale, seed=seed),
    "fig25": experiments.figure25,
    "fig21": lambda scale, seed: experiments.figure21(),
    "table3": lambda scale, seed: experiments.table3(),
}


def _obs_parser(command: str) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="snake-repro " + command,
        description="Run one workload with the repro.obs telemetry bus "
        "attached and report %s."
        % (
            "a Chrome-trace JSON plus per-PC metrics"
            if command == "trace"
            else "per-PC and per-warp metric tables"
        ),
    )
    parser.add_argument("app", help="workload name (see repro.workloads)")
    parser.add_argument(
        "--mechanism", default="snake", help="prefetcher configuration"
    )
    parser.add_argument("--scale", type=float, default=1.0, help="trace-size multiplier")
    parser.add_argument("--seed", type=int, default=1, help="workload seed")
    parser.add_argument(
        "--bucket", type=int, default=None,
        help="time-series bucket width in cycles "
        "(default: GPUConfig.telemetry_bucket_cycles)",
    )
    parser.add_argument(
        "--top", type=int, default=20, help="rows per metrics table"
    )
    if command == "trace":
        parser.add_argument(
            "--out", metavar="PATH", default=None,
            help="Chrome-trace JSON path (default <app>.trace.json)",
        )
    else:
        parser.add_argument(
            "--hot", action="store_true",
            help="attribute host wall time to the hot components "
            "(table-walk / issue / coalesce / cache) instead of "
            "reporting cycle-domain metrics; see docs/OBSERVABILITY.md",
        )
    return parser


def _run_obs_command(command: str, argv) -> int:
    from repro.gpusim.config import GPUConfig
    from repro.obs.runner import traced_run

    args = _obs_parser(command).parse_args(argv)
    if command == "profile" and args.hot:
        from repro.obs.hotprof import hot_profile_run

        try:
            profile = hot_profile_run(
                args.app, mechanism=args.mechanism, scale=args.scale,
                seed=args.seed,
            )
        except (KeyError, ValueError) as exc:
            print("error: %s" % exc, file=sys.stderr)
            return 2
        print(profile.render())
        return 0
    bucket = (
        args.bucket
        if args.bucket is not None
        else GPUConfig().telemetry_bucket_cycles
    )
    try:
        result = traced_run(
            args.app,
            mechanism=args.mechanism,
            scale=args.scale,
            seed=args.seed,
            bucket_cycles=bucket,
            chrome=command == "trace",
        )
    except (KeyError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2

    print("%s under %s (scale=%g seed=%d)" % (
        args.app, args.mechanism, args.scale, args.seed
    ))
    for key, value in result.stats.as_dict().items():
        print("  %-24s %.4f" % (key, value))
    print()
    print("per-PC metrics")
    print(result.pc_metrics.render_pc_table(top=args.top))
    print()
    if command == "trace":
        out = args.out or "%s.trace.json" % args.app
        result.chrome.export(out)
        print(result.sampler.render_summary())
        print()
        print("chrome trace written to %s (open at chrome://tracing or "
              "https://ui.perfetto.dev)" % out)
    else:
        print("per-warp metrics")
        print(result.pc_metrics.render_warp_table(top=args.top))
    return 0


def _sweep_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="snake-repro sweep",
        description="Run the (app x mechanism) comparison grid through the "
        "fault-tolerant runner: crash-isolated parallel workers, per-job "
        "timeouts, atomic JSONL checkpointing and --resume.  See "
        "docs/ROBUSTNESS.md.",
    )
    parser.add_argument(
        "--apps", default=None,
        help="comma-separated workload names (default: all benchmarks)",
    )
    parser.add_argument(
        "--mechanisms", default=None,
        help="comma-separated mechanisms (default: none + all comparison points)",
    )
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="parallel worker processes (default: min(4, cores-1); 0 = in-process)",
    )
    parser.add_argument(
        "--timeout", type=float, default=None, metavar="S",
        help="per-job wall-clock timeout in seconds (default: none)",
    )
    parser.add_argument(
        "--retries", type=int, default=2, metavar="N",
        help="max attempts for a crashed job (default: 2)",
    )
    parser.add_argument(
        "--lease", type=float, default=None, metavar="S",
        help="worker liveness lease in seconds: a worker silent longer "
        "than this loses its job to another worker (default: 15)",
    )
    parser.add_argument(
        "--drain-timeout", type=float, default=30.0, metavar="S",
        help="on SIGINT/SIGTERM, how long to let in-flight jobs finish "
        "and checkpoint before killing them (default: 30)",
    )
    parser.add_argument(
        "--checkpoint", metavar="PATH", default=None,
        help="JSONL checkpoint file (enables --resume)",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="reuse finished jobs from --checkpoint instead of starting fresh",
    )
    parser.add_argument(
        "--retry-failed", action="store_true",
        help="with --resume, re-run jobs whose checkpoint record is a failure",
    )
    parser.add_argument("--scale", type=float, default=1.0, help="trace-size multiplier")
    parser.add_argument("--seed", type=int, default=1, help="workload seed")
    parser.add_argument(
        "--sanitize", action="store_true",
        help="audit conservation invariants during every simulation "
        "(a violation fails the cell as FAILED(invariant:<name>))",
    )
    parser.add_argument("--csv", metavar="PATH", help="export the IPC matrix as CSV")
    parser.add_argument("--json", metavar="PATH", help="export the IPC matrix as JSON")
    return parser


def _run_sweep_command(argv) -> int:
    import signal as signal_module

    from repro.prefetch import COMPARISON_POINTS
    from repro.runner import Checkpoint, Scheduler, default_jobs, grid_specs
    from repro.workloads import BENCHMARKS

    args = _sweep_parser().parse_args(argv)
    apps = (
        [a for a in args.apps.split(",") if a]
        if args.apps else list(BENCHMARKS)
    )
    mechanisms = (
        [m for m in args.mechanisms.split(",") if m]
        if args.mechanisms else ["none"] + COMPARISON_POINTS
    )
    if args.resume and not args.checkpoint:
        print("error: --resume needs --checkpoint PATH", file=sys.stderr)
        return 2
    jobs = default_jobs() if args.jobs is None else args.jobs

    config = None
    if args.sanitize:
        from repro.gpusim.config import GPUConfig

        config = GPUConfig.scaled().with_(sanitize=True)
    specs = grid_specs(
        apps, mechanisms, config=config, scale=args.scale, seed=args.seed
    )
    print(
        "sweep: %d cells (%s x %s), %d worker%s%s"
        % (
            len(specs), ",".join(apps), ",".join(mechanisms), jobs,
            "" if jobs == 1 else "s",
            " [resuming %s]" % args.checkpoint if args.resume else "",
        )
    )

    def progress(key, spec, outcome):
        if getattr(outcome, "failed", False):
            print("  ! %-28s %s" % (spec.label(), outcome))
        else:
            print("  . %-28s ipc=%.3f" % (spec.label(), outcome.ipc))

    try:
        ckpt = Checkpoint.load(args.checkpoint) if args.checkpoint else None
        scheduler = Scheduler(
            specs,
            jobs=jobs,
            timeout=args.timeout,
            retries=args.retries,
            lease_s=args.lease,
            drain_timeout_s=args.drain_timeout,
            checkpoint=ckpt,
            resume=args.resume,
            retry_failed=args.retry_failed,
            on_result=progress,
        )

        def _drain_handler(signum, frame):
            # First signal: graceful drain (finish in-flight cells, flush
            # the checkpoint).  Restore the previous handler so a second
            # signal aborts hard, the traditional way.
            print(
                "\nsignal: draining in-flight jobs "
                "(repeat to abort immediately)...",
                file=sys.stderr,
            )
            scheduler.request_drain()
            signal_module.signal(signum, previous.get(signum, signal_module.SIG_DFL))

        previous = {}
        hooked = []
        for sig in (signal_module.SIGINT, signal_module.SIGTERM):
            try:
                previous[sig] = signal_module.signal(sig, _drain_handler)
                hooked.append(sig)
            except (OSError, ValueError):
                pass  # non-main thread / exotic platform: drain via API only
        try:
            result = scheduler.run()
        finally:
            for sig in hooked:
                signal_module.signal(sig, previous[sig])
    except (OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2

    if result.drained:
        print()
        print(
            "sweep drained after signal: %d cells finished this run, "
            "%d still pending" % (result.executed, result.remaining)
        )
        if args.checkpoint:
            print(
                "resume with: snake-repro sweep --resume --checkpoint %s"
                % args.checkpoint
            )
        else:
            print("(no --checkpoint given, so the pending cells start over)")
        return 4

    sweep = result.cells()
    print()
    print(report.render_matrix(
        "Sweep: prefetch coverage", experiments.figure16_from(sweep), percent=True
    ))
    print()
    ipc = experiments.figure18_from(sweep)
    if any(ipc.values()):
        print(report.render_matrix(
            "Sweep: IPC vs baseline", ipc, percent=False
        ))
        print()
    if args.csv or args.json:
        from repro.analysis import export

        data = ipc if any(ipc.values()) else experiments.figure16_from(sweep)
        if args.csv:
            export.to_csv(data, args.csv)
        if args.json:
            export.to_json(data, args.json)
    print(
        "sweep: %d jobs (%d executed, %d reused), %d failed"
        % (len(result.results), result.executed, result.reused, result.failed)
    )
    if not result.ok:
        for key, res in result.results.items():
            if getattr(res, "failed", False):
                print("  FAILED %-28s %s" % (result.specs[key].label(), res.message))
        return 3
    return 0


def _chaos_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="snake-repro chaos",
        description="Correctness-under-faults harness.  Default mode: run "
        "each app under seeded fault plans (repro.gpusim.faults) with the "
        "conservation sanitizer armed, and assert the demand-visible "
        "outcome (committed instructions, finished warps) matches a "
        "fault-free run.  With --runner the faults target the sweep "
        "scheduler instead (worker kills, heartbeat stalls, transport "
        "drop/delay/duplicate, torn checkpoint writes, a real scheduler "
        "SIGKILL + --resume) and the assertion is byte-identical sweep "
        "results.  Faults may only cost time, never results.  See "
        "docs/ROBUSTNESS.md.",
    )
    parser.add_argument(
        "--runner", action="store_true",
        help="inject faults into the sweep scheduler/worker plane instead "
        "of the simulator, asserting byte-identical sweep outputs",
    )
    parser.add_argument(
        "--runner-jobs", type=int, default=2, metavar="N",
        help="worker processes for the --runner kill/resume scenario "
        "(default: 2)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="with --runner: skip the subprocess scheduler-SIGKILL + "
        "--resume scenario (virtual-clock plans only)",
    )
    parser.add_argument(
        "--apps", default="lps,hotspot,backprop",
        help="comma-separated workload names (default: lps,hotspot,backprop)",
    )
    parser.add_argument(
        "--mechanism", default="snake", help="prefetcher configuration"
    )
    parser.add_argument(
        "--sites", default="all",
        help="'all' (each site separately + the all-sites storm), 'storm' "
        "(the combined plan only), or a comma-separated site list",
    )
    parser.add_argument("--seed", type=int, default=0, help="fault-plan seed")
    parser.add_argument(
        "--workload-seed", type=int, default=1, help="workload trace seed"
    )
    parser.add_argument(
        "--scale", type=float, default=0.25, help="trace-size multiplier"
    )
    parser.add_argument(
        "--delay-cycles", type=int, default=400,
        help="nominal magnitude for delay/spike faults (default: 400)",
    )
    return parser


def _runner_chaos_plans(args):
    """Resolve --sites into RunnerFaultPlans (or an error string)."""
    from repro.gpusim.faults import RUNNER_DEFAULT_RATES, RUNNER_SITES, RunnerFaultPlan

    if args.sites == "all":
        plans = [
            RunnerFaultPlan.single(site, seed=args.seed) for site in RUNNER_SITES
        ]
        plans.append(RunnerFaultPlan.storm(seed=args.seed))
        return plans, None
    if args.sites == "storm":
        return [RunnerFaultPlan.storm(seed=args.seed)], None
    sites = [s for s in args.sites.split(",") if s]
    unknown = [s for s in sites if s not in RUNNER_SITES]
    if unknown:
        return None, "unknown runner fault site(s) %s (known: %s)" % (
            ",".join(unknown), ",".join(RUNNER_SITES),
        )
    return [
        RunnerFaultPlan.make(
            {s: RUNNER_DEFAULT_RATES[s] for s in sites}, seed=args.seed
        )
    ], None


def _run_runner_chaos(args) -> int:
    """``snake-repro chaos --runner``: prove that any seeded schedule of
    scheduler/worker/transport faults — and a real scheduler SIGKILL with
    ``--resume`` — yields byte-identical sweep results to a fault-free run."""
    import shutil
    import tempfile
    from pathlib import Path

    from repro.analysis import export
    from repro.gpusim.faults import RunnerFaultInjector
    from repro.runner import Checkpoint, grid_specs
    from repro.runner.scheduler import DEFAULT_RETRIES, Scheduler
    from repro.runner.transport import InlineTransport, VirtualClock

    apps = [a for a in args.apps.split(",") if a]
    plans, problem = _runner_chaos_plans(args)
    if problem:
        print("error: %s" % problem, file=sys.stderr)
        return 2
    specs = grid_specs(
        apps, [args.mechanism], scale=args.scale, seed=args.workload_seed
    )
    workdir = Path(tempfile.mkdtemp(prefix="snake-chaos-runner-"))

    def run_sweep(checkpoint_path, injector=None):
        plan = injector.plan if injector is not None else None
        transport = InlineTransport(workers=2, faults=injector)
        return Scheduler(
            specs,
            transport=transport,
            retries=max(DEFAULT_RETRIES, plan.max_per_job if plan else 0),
            backoff_s=0.01,
            # The lease must be shorter than the shortest heartbeat stall
            # (2 * delay_s) or stalls would just look like slow jobs.
            lease_s=plan.delay_s if plan else 0.0,
            max_losses=(plan.max_per_job + 1) if plan else 3,
            checkpoint=Checkpoint(checkpoint_path),
            clock=VirtualClock(),
            faults=injector,
        ).run()

    def canonical(checkpoint_path):
        return Checkpoint.load(checkpoint_path).canonical_bytes()

    def figure_csv(result, path):
        export.to_csv(experiments.figure16_from(result.cells()), str(path))
        return Path(path).read_bytes()

    try:
        reference_ck = workdir / "reference.jsonl"
        reference = run_sweep(reference_ck)
        if not reference.ok:
            print(
                "error: the fault-free reference sweep itself failed "
                "(%d cells); fix that first" % reference.failed,
                file=sys.stderr,
            )
            return 2
        reference_bytes = canonical(reference_ck)
        reference_csv = figure_csv(reference, workdir / "reference.csv")
        print(
            "runner chaos: %d cells (%s x %s), reference canonicalized "
            "(%d records)"
            % (len(specs), ",".join(apps), args.mechanism, len(reference.results))
        )

        mismatches = 0
        for plan in plans:
            injector = RunnerFaultInjector(plan)
            ck = workdir / ("faulted-%s.jsonl" % plan.label().replace("+", "_"))
            result = run_sweep(ck, injector=injector)
            identical = (
                canonical(ck) == reference_bytes
                and figure_csv(result, ck.with_suffix(".csv")) == reference_csv
            )
            fired = ", ".join(
                "%s x%d" % (site, count)
                for site, count in injector.summary().items() if count
            ) or "no faults fired"
            ledger = "losses=%d dup=%d steals=%d" % (
                result.losses, result.duplicates, result.steals,
            )
            if identical and result.ok:
                print("  . %-28s %s; %s; byte-identical"
                      % (plan.label(), fired, ledger))
            else:
                mismatches += 1
                print("  ! %-28s %s; %s; DIVERGED (ok=%s)"
                      % (plan.label(), fired, ledger, result.ok))

        if not args.quick:
            mismatches += _runner_kill_resume(
                args, specs, reference_bytes, reference_csv, workdir,
                canonical, figure_csv,
            )

        print()
        verdict = "byte-identical under every plan" if not mismatches else (
            "%d scenario(s) DIVERGED" % mismatches
        )
        print("runner chaos: %d plan(s)%s, %s" % (
            len(plans), "" if args.quick else " + scheduler-kill/resume", verdict,
        ))
        return 0 if not mismatches else 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _runner_kill_resume(args, specs, reference_bytes, reference_csv,
                        workdir, canonical, figure_csv) -> int:
    """SIGKILL a real sweep subprocess mid-run, tear its checkpoint's
    trailing record, then ``--resume``; returns 0 if byte-identical."""
    import os
    import signal as signal_module
    import subprocess
    import time as time_module
    from pathlib import Path

    import repro
    from repro.runner import Checkpoint
    from repro.runner.scheduler import Scheduler

    ck = workdir / "killed.jsonl"
    src_dir = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    cmd = [
        sys.executable, "-m", "repro.cli", "sweep",
        "--apps", args.apps, "--mechanisms", args.mechanism,
        "--jobs", str(max(1, args.runner_jobs)),
        "--scale", str(args.scale), "--seed", str(args.workload_seed),
        "--checkpoint", str(ck),
    ]
    proc = subprocess.Popen(
        cmd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
    )
    # Kill the scheduler the instant the first record lands — maximally
    # mid-sweep: some cells durable, some in flight, some unstarted.
    deadline = time_module.time() + 300
    while time_module.time() < deadline:
        if ck.exists() and ck.read_bytes().count(b"\n") >= 1:
            break
        if proc.poll() is not None:
            break
        time_module.sleep(0.02)
    killed_midway = proc.poll() is None
    if killed_midway:
        proc.send_signal(signal_module.SIGKILL)
    proc.wait()

    torn = ck.exists()
    if torn:
        Checkpoint(ck).tear()  # a writer died mid-append, says the disk

    checkpoint = Checkpoint.load(ck)
    resumed = Scheduler(
        specs, jobs=0, checkpoint=checkpoint, resume=True,
    ).run()
    identical = (
        canonical(ck) == reference_bytes
        and figure_csv(resumed, workdir / "resumed.csv") == reference_csv
    )
    quarantine_ok = (not torn) or (
        checkpoint.quarantined == 1 and checkpoint.corrupt_path.exists()
    )
    status = []
    status.append(
        "SIGKILL mid-sweep" if killed_midway else "sweep finished before kill"
    )
    status.append("torn record quarantined" if (torn and quarantine_ok)
                  else ("no checkpoint to tear" if not torn else
                        "TORN RECORD NOT QUARANTINED"))
    status.append("%d reused, %d re-run" % (resumed.reused, resumed.executed))
    if identical and quarantine_ok:
        print("  . %-28s %s; byte-identical"
              % ("scheduler-kill+resume", "; ".join(status)))
        return 0
    print("  ! %-28s %s; DIVERGED" % ("scheduler-kill+resume", "; ".join(status)))
    return 1


def _run_chaos_command(argv) -> int:
    from repro.gpusim import (
        FaultInjector,
        FaultPlan,
        GPUConfig,
        InvariantViolationError,
        simulate,
    )
    from repro.gpusim.faults import DEFAULT_RATES, SITES
    from repro.workloads import build_kernel

    args = _chaos_parser().parse_args(argv)
    if args.runner:
        return _run_runner_chaos(args)
    apps = [a for a in args.apps.split(",") if a]
    if args.sites == "all":
        plans = [
            FaultPlan.single(site, seed=args.seed, delay_cycles=args.delay_cycles)
            for site in SITES
        ]
        plans.append(FaultPlan.storm(seed=args.seed, delay_cycles=args.delay_cycles))
    elif args.sites == "storm":
        plans = [FaultPlan.storm(seed=args.seed, delay_cycles=args.delay_cycles)]
    else:
        sites = [s for s in args.sites.split(",") if s]
        unknown = [s for s in sites if s not in SITES]
        if unknown:
            print(
                "error: unknown fault site(s) %s (known: %s)"
                % (",".join(unknown), ",".join(SITES)),
                file=sys.stderr,
            )
            return 2
        plans = [
            FaultPlan.make(
                {s: DEFAULT_RATES[s] for s in sites},
                seed=args.seed, delay_cycles=args.delay_cycles,
            )
        ]

    config = GPUConfig.scaled().with_(sanitize=True)
    divergences = 0
    violations = 0
    total_fired = 0
    for app in apps:
        try:
            kernel = build_kernel(app, scale=args.scale, seed=args.workload_seed)
            baseline = simulate(kernel, prefetcher=args.mechanism, config=config)
        except (KeyError, ValueError) as exc:
            print("error: %s" % exc, file=sys.stderr)
            return 2
        print(
            "%s/%s fault-free: %d instructions, %d warps, %d cycles"
            % (app, args.mechanism, baseline.instructions,
               baseline.warps_finished, baseline.cycles)
        )
        for plan in plans:
            injector = FaultInjector(plan)
            kernel = build_kernel(app, scale=args.scale, seed=args.workload_seed)
            try:
                stats = simulate(
                    kernel, prefetcher=args.mechanism, config=config,
                    faults=injector,
                )
            except InvariantViolationError as exc:
                violations += 1
                print(
                    "  ! %-44s INVARIANT VIOLATION (%s at cycle %d)"
                    % (plan.label(), exc.invariant, exc.cycle)
                )
                continue
            fired = injector.total_fired
            total_fired += fired
            same = (
                stats.instructions == baseline.instructions
                and stats.warps_finished == baseline.warps_finished
            )
            delta = stats.cycles - baseline.cycles
            if same:
                print(
                    "  . %-44s %4d faults, cycles %+d, demand outcome identical"
                    % (plan.label(), fired, delta)
                )
            else:
                divergences += 1
                print(
                    "  ! %-44s %4d faults, DEMAND OUTCOME DIVERGED "
                    "(instructions %d != %d, warps %d != %d)"
                    % (plan.label(), fired, stats.instructions,
                       baseline.instructions, stats.warps_finished,
                       baseline.warps_finished)
                )
    print()
    print(
        "chaos: %d app%s x %d plan%s, %d faults injected, "
        "%d divergence%s, %d sanitizer violation%s"
        % (
            len(apps), "" if len(apps) == 1 else "s",
            len(plans), "" if len(plans) == 1 else "s",
            total_fired,
            divergences, "" if divergences == 1 else "s",
            violations, "" if violations == 1 else "s",
        )
    )
    return 0 if not divergences and not violations else 3


def _serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="snake-repro serve",
        description="Run the online prefetch-prediction service (default), "
        "drive a running server with the workload-replay load generator "
        "(--loadgen), or run the seeded serve chaos certificate (--chaos).  "
        "See docs/SERVING.md.",
    )
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--loadgen", action="store_true",
        help="replay the workload suite as concurrent clients against a "
        "running server instead of serving",
    )
    mode.add_argument(
        "--chaos", action="store_true",
        help="run the seeded chaos harness: misbehaving clients, SIGKILL "
        "mid-stream, torn journal, recovery certificate",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind/connect host")
    parser.add_argument(
        "--port", type=int, default=0,
        help="port (0 = ephemeral; the bound port lands in "
        "<data-dir>/serve.port).  --loadgen reads that file when no "
        "explicit port is given",
    )
    parser.add_argument(
        "--data-dir", default="serve-data", metavar="DIR",
        help="durable state directory (snapshot + write-ahead journal)",
    )
    parser.add_argument(
        "--queue-depth", type=int, default=256, metavar="N",
        help="bounded ingress queue; a full queue sheds with overload NACKs",
    )
    parser.add_argument(
        "--deadline", type=float, default=2.0, metavar="S",
        help="per-request processing budget before a deadline NACK",
    )
    parser.add_argument(
        "--frame-timeout", type=float, default=5.0, metavar="S",
        help="a frame's payload must land this fast (slow-loris eviction)",
    )
    parser.add_argument(
        "--idle-timeout", type=float, default=60.0, metavar="S",
        help="silent connections are closed after this",
    )
    parser.add_argument(
        "--snapshot-every", type=int, default=None, metavar="N",
        help="journal records between full state snapshots "
        "(default 1000 serving, 50 under --chaos so the certificate "
        "exercises the snapshot+journal composition)",
    )
    parser.add_argument(
        "--fsync", action="store_true",
        help="fsync every journal append (machine-crash durability)",
    )
    parser.add_argument(
        "--shards", type=int, default=4, metavar="N",
        help="PC-sharded learners per session",
    )
    parser.add_argument(
        "--max-sessions", type=int, default=64, metavar="N",
        help="session table capacity (admission control)",
    )
    parser.add_argument(
        "--clients", type=int, default=100, metavar="N",
        help="loadgen/chaos: concurrent clients",
    )
    parser.add_argument(
        "--events", type=int, default=30, metavar="N",
        help="loadgen/chaos: accesses streamed per client",
    )
    parser.add_argument(
        "--apps", default="lps,hotspot,backprop",
        help="loadgen/chaos: comma-separated workloads to replay",
    )
    parser.add_argument(
        "--scale", type=float, default=0.1, help="workload trace-size multiplier"
    )
    parser.add_argument("--seed", type=int, default=1, help="workload seed")
    parser.add_argument(
        "--chaos-seed", type=int, default=0, metavar="N",
        help="chaos: fault-plan seed (which clients misbehave)",
    )
    parser.add_argument(
        "--no-kill", action="store_true",
        help="chaos: skip the SIGKILL phase (graceful-drain certificate; "
        "the fast CI smoke mode)",
    )
    return parser


def _run_serve_command(argv) -> int:
    from pathlib import Path

    from repro.serve import (
        ServeConfig,
        ServeFaultPlan,
        ServeSettings,
        run_loadgen,
        run_serve_chaos,
        run_server,
    )
    from repro.serve.service import PORT_FILE

    args = _serve_parser().parse_args(argv)
    apps = [a for a in args.apps.split(",") if a]

    if args.chaos:
        report = run_serve_chaos(
            ServeFaultPlan.storm(seed=args.chaos_seed),
            clients=args.clients, events_per_client=args.events,
            apps=apps, scale=args.scale, workload_seed=args.seed,
            kill=not args.no_kill,
            frame_timeout_s=args.frame_timeout,
            snapshot_every=args.snapshot_every or 50,
        )
        print(report.render())
        return 0 if report.ok else 3

    if args.loadgen:
        port = args.port
        if port == 0:
            port_file = Path(args.data_dir) / PORT_FILE
            if not port_file.exists():
                print(
                    "error: no --port given and %s does not exist (is the "
                    "server running with this --data-dir?)" % port_file,
                    file=sys.stderr,
                )
                return 2
            port = int(port_file.read_text().strip())
        try:
            report = run_loadgen(
                args.host, port, clients=args.clients,
                events_per_client=args.events, apps=apps,
                scale=args.scale, seed=args.seed,
            )
        except (KeyError, ValueError) as exc:
            print("error: %s" % exc, file=sys.stderr)
            return 2
        print(report.summary())
        if report.silent:
            print(
                "error: %d silent drop(s) — the zero-silent-drop contract "
                "is broken" % report.silent,
                file=sys.stderr,
            )
            return 3
        return 0

    try:
        config = ServeConfig(shards=args.shards, max_sessions=args.max_sessions)
        settings = ServeSettings(
            host=args.host, port=args.port, data_dir=args.data_dir,
            queue_depth=args.queue_depth, deadline_s=args.deadline,
            frame_timeout_s=args.frame_timeout,
            idle_timeout_s=args.idle_timeout,
            snapshot_every=args.snapshot_every or 1000, fsync=args.fsync,
            config=config,
        )
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    return run_server(settings)


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] in ("trace", "profile"):
        return _run_obs_command(argv[0], argv[1:])
    if argv and argv[0] == "sweep":
        return _run_sweep_command(argv[1:])
    if argv and argv[0] == "chaos":
        return _run_chaos_command(argv[1:])
    if argv and argv[0] == "serve":
        return _run_serve_command(argv[1:])
    if argv and argv[0] == "lint":
        from repro.lint.cli import main as lint_main

        return lint_main(argv[1:])

    parser = argparse.ArgumentParser(
        prog="snake-repro",
        description="Reproduce the Snake (MICRO 2023) evaluation.",
    )
    parser.add_argument(
        "experiment",
        help="experiment id (fig3..fig25, table3), 'list', 'all', "
        "'trace <app>', 'profile <app>' or 'lint'",
    )
    parser.add_argument("--scale", type=float, default=1.0, help="trace-size multiplier")
    parser.add_argument("--seed", type=int, default=1, help="workload seed")
    parser.add_argument("--csv", metavar="PATH", help="also export raw data as CSV")
    parser.add_argument("--json", metavar="PATH", help="also export raw data as JSON")
    args = parser.parse_args(argv)

    if args.experiment == "list":
        print(
            "\n".join(
                sorted(EXPERIMENTS)
                + ["chaos", "claims", "lint", "profile", "serve", "sweep",
                   "trace"]
            )
        )
        return 0
    if args.experiment == "claims":
        from repro.analysis.claims import check_claims, render_claims

        print(render_claims(check_claims(scale=args.scale, seed=args.seed)))
        return 0
    if args.experiment == "all":
        for name in sorted(EXPERIMENTS):
            print(EXPERIMENTS[name](args.scale, args.seed))
            print()
        return 0
    runner = EXPERIMENTS.get(args.experiment)
    if runner is None:
        print(
            "unknown experiment %r; try 'list'" % args.experiment, file=sys.stderr
        )
        return 2
    print(runner(args.scale, args.seed))
    if args.csv or args.json:
        from repro.analysis import export

        raw = RAW_EXPERIMENTS.get(args.experiment)
        if raw is None:
            print("no raw data export for %r" % args.experiment, file=sys.stderr)
            return 2
        data = raw(scale=args.scale, seed=args.seed)
        if args.csv:
            export.to_csv(data, args.csv)
        if args.json:
            export.to_json(data, args.json)
    return 0


if __name__ == "__main__":
    sys.exit(main())
