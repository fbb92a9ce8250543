"""Command-line entry point: regenerate any table/figure of the paper.

A thin shell over the :mod:`repro.api` scenario registry — scenarios are
data, execution is the one generic engine, and this module only parses
flags, loops, and persists CSVs.

Usage::

    tictac-repro list                                  # what can run
    python -m repro.experiments table1 fig7 fig12      # selected scenarios
    python -m repro.experiments all --full             # the whole paper
    tictac-repro fig13 --results-dir out/              # console script
    tictac-repro trace headline                        # Perfetto trace
    tictac-repro replay --n-jobs 200                   # trace replay

``trace`` captures one traced iteration of one scenario cell
(:func:`repro.obs.capture.capture_trace`) and writes it through an
exporter — Chrome trace-event JSON for https://ui.perfetto.dev by
default, tidy per-op CSV with ``--exporter csv``.

``replay`` streams a job trace (synthetic or Alibaba-style CSV) through
the dynamic-admission cluster scheduler (:mod:`repro.replay`) into a
chunked, crash-resumable result sink.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from ..api.registry import (
    UnknownScenarioError,
    iter_scenarios,
    scenario,
    scenario_names,
)
from ..api.session import Session


#: exporter name -> one-line description for the listing.
_EXPORTER_NOTES = {
    "chrome": "Chrome trace-event JSON (load at https://ui.perfetto.dev)",
    "csv": "tidy per-op rows (ready/start/end/wait/depth/priority)",
}


def print_listing() -> None:
    """``tictac-repro list``: scenarios, backends and the other registries."""
    from ..backends import backends, spec_fields
    from ..backends.placement import placements
    from ..obs.export import EXPORTERS
    from ..timing import PLATFORMS

    print("scenarios (presentation order):")
    for sc in iter_scenarios():
        kind = "grid" if sc.grid is not None else "custom"
        aux = f" +{len(sc.aux_outputs)} aux" if sc.aux_outputs else ""
        print(f"  {sc.name:<12} {sc.title}")
        print(f"  {'':<12} [{kind} -> {sc.output}.csv{aux}]")
    print("\ncommunication backends:")
    for name, backend in sorted(backends().items()):
        fields = ", ".join(spec_fields(backend.spec_type))
        print(f"  {name:<12} {backend.spec_type.__name__}({fields})")
    print("\nplacement policies (job mixes):")
    for name, policy in sorted(placements().items()):
        print(f"  {name:<12} {policy.description}")
    print("\ntrace exporters (tictac-repro trace <scenario> --exporter NAME):")
    for name in sorted(EXPORTERS):
        print(f"  {name:<12} {_EXPORTER_NOTES.get(name, '')}")
    from ..replay.admission import admission_policies
    from ..replay.sink import CsvChunkSink, sink_backends
    from ..replay.trace import trace_generators

    print("\ntrace generators (tictac-repro replay --arrival NAME):")
    for name, generator in sorted(trace_generators().items()):
        print(f"  {name:<12} {generator.description}")
    print("\nadmission policies (tictac-repro replay --admission NAME):")
    for name, policy in sorted(admission_policies().items()):
        print(f"  {name:<12} {policy.description}")
    print("\nreplay sinks (tictac-repro replay --sink NAME):")
    for name, cls in sorted(sink_backends().items()):
        if cls is CsvChunkSink:
            note = "chunked CSV append with manifest crash-resume"
        else:
            try:
                import pyarrow  # noqa: F401

                note = "one parquet row group per chunk (no resume)"
            except ImportError:
                note = "unavailable (pip install pyarrow)"
        print(f"  {name:<12} {note}")
    print("\nplatforms: " + ", ".join(sorted(PLATFORMS)))


def trace_main(argv: Sequence[str]) -> int:
    """``tictac-repro trace <scenario>``: capture + export one traced
    iteration (no sweep pool, no cache — a few seconds at quick scale)."""
    parser = argparse.ArgumentParser(
        prog="tictac-repro trace",
        description="Trace one iteration of one scenario cell and export "
        "it (Perfetto JSON or per-op CSV).",
    )
    parser.add_argument("scenario", help="registered scenario name, e.g. "
                        "'headline' or 'jobmix_crosstalk'")
    parser.add_argument("--exporter", default="chrome",
                        help="output format: 'chrome' (Perfetto JSON, "
                        "default) or 'csv' (per-op rows)")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="output path (default: "
                        "<results-dir>/trace_<scenario>.<ext>)")
    parser.add_argument("--cell", type=int, default=0, metavar="N",
                        help="which resolved cell to trace (default: first)")
    parser.add_argument("--iteration", type=int, default=None, metavar="I",
                        help="iteration index (default: first measured)")
    parser.add_argument("--full", action="store_true",
                        help="resolve the scenario at full (paper) scale")
    parser.add_argument("--results-dir", default="results")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(list(argv))

    from ..obs.capture import capture_trace
    from ..obs.export import UnknownExporterError, get_exporter, validate_chrome_trace

    try:
        exporter = get_exporter(args.exporter)
    except UnknownExporterError as exc:
        parser.error(str(exc))
    try:
        scenario(args.scenario)
    except UnknownScenarioError as exc:
        parser.error(str(exc))
    try:
        cap = capture_trace(
            args.scenario,
            scale="full" if args.full else "quick",
            seed=args.seed,
            cell_index=args.cell,
            iteration=args.iteration,
        )
    except ValueError as exc:  # scenario with no simulation cells
        parser.error(str(exc))
    ext = "json" if args.exporter == "chrome" else "csv"
    out = args.out or os.path.join(
        args.results_dir, f"trace_{args.scenario}.{ext}"
    )
    os.makedirs(os.path.dirname(out) or ".", exist_ok=True)
    exporter(cap.trace, out)
    if args.exporter == "chrome":
        validate_chrome_trace(out)
    if not args.quiet:
        cell, summary = cap.cell, cap.trace.summary()
        print(
            f"traced {args.scenario} cell {args.cell}: {cell.model} "
            f"{cell.algorithm} on {cell.platform} "
            f"(iteration {cap.iteration})"
        )
        print(
            f"  makespan {summary['makespan_s']:.4f}s, "
            f"{summary['n_ops']} ops, "
            f"{summary['n_chunk_events']} wire chunks, "
            f"overlap {summary['overlap_frac']:.2f}, "
            f"{summary['priority_inversions']} priority inversions"
        )
        print(f"  {args.exporter} -> {out}")
    return 0


def replay_main(argv: Sequence[str]) -> int:
    """``tictac-repro replay``: stream a trace through the epoch
    scheduler (:mod:`repro.replay`) into a chunked result sink.

    The per-job rows land in ``--out`` as they finish (never held in
    memory); the incremental per-mode summary lands in ``--summary-out``
    on exit. A killed run resumes from the sink's last committed chunk
    with ``--resume`` — the finished files are byte-identical to an
    uninterrupted run.
    """
    parser = argparse.ArgumentParser(
        prog="tictac-repro replay",
        description="Replay a job trace (synthetic or Alibaba-style CSV) "
        "through the dynamic-admission cluster scheduler.",
    )
    parser.add_argument("--trace", default=None, metavar="CSV",
                        help="Alibaba-GPU-2020-style CSV trace "
                        "(job_name/start_time/end_time[/inst_num/status]); "
                        "default: a seeded synthetic trace")
    parser.add_argument("--n-jobs", type=int, default=100, metavar="N",
                        help="synthetic trace: number of jobs (default 100)")
    parser.add_argument("--horizon-s", type=float, default=3600.0, metavar="S",
                        help="synthetic trace: arrival horizon in seconds")
    parser.add_argument("--arrival", default="poisson",
                        help="synthetic arrival process (see 'tictac-repro "
                        "list': poisson/uniform/bursty)")
    parser.add_argument("--limit", type=int, default=None, metavar="N",
                        help="replay only the first N trace jobs")
    parser.add_argument("--algorithm", default="mix",
                        help="scheduling mode: 'mix' (per-job algorithms), "
                        "'baseline', 'tic', 'tac', ... (default: mix)")
    parser.add_argument("--admission", default="fifo",
                        help="admission policy (fifo/backfill; see list)")
    parser.add_argument("--n-hosts", type=int, default=8)
    parser.add_argument("--slots-per-host", type=int, default=2)
    parser.add_argument("--placement", default="packed",
                        help="placement policy for running jobs (packed/"
                        "spread/rack_aware; see list)")
    parser.add_argument("--platform", default="envC")
    parser.add_argument("--sink", default="csv",
                        help="result sink backend (csv/parquet)")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="per-job row stream (default: "
                        "<results-dir>/replay_jobs.<ext>)")
    parser.add_argument("--summary-out", default=None, metavar="PATH",
                        help="per-mode summary CSV (default: "
                        "<results-dir>/replay.csv)")
    parser.add_argument("--chunk-rows", type=int, default=256, metavar="N",
                        help="rows per committed sink chunk (default 256)")
    parser.add_argument("--resume", action="store_true",
                        help="resume a killed run from --out's manifest "
                        "(csv sink only)")
    parser.add_argument("--jobs", "-j", type=int, default=None, metavar="N",
                        help="worker processes for rate cells "
                        "(default: $REPRO_JOBS or 1)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--results-dir", default="results")
    parser.add_argument("--no-cache", action="store_true")
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(list(argv))

    from ..analysis import format_table, write_csv
    from ..replay.admission import UnknownAdmissionError
    from ..replay.aggregate import ReplayAggregate
    from ..replay.engine import (
        JOB_COLUMNS,
        ReplayCluster,
        ReplayError,
        replay,
    )
    from ..replay.loader import load_alibaba_csv
    from ..replay.sink import SinkError, UnknownSinkError, make_sink
    from ..replay.trace import SyntheticTraceSpec, TraceError, generate_trace

    try:
        if args.trace is not None:
            traces = load_alibaba_csv(args.trace, limit=args.limit)
        else:
            traces = generate_trace(
                SyntheticTraceSpec(
                    n_jobs=args.n_jobs,
                    horizon_s=args.horizon_s,
                    arrival=args.arrival,
                ),
                seed=args.seed,
            )
            if args.limit is not None:
                traces = traces[: args.limit]
        cluster = ReplayCluster(
            n_hosts=args.n_hosts,
            slots_per_host=args.slots_per_host,
            placement=args.placement,
            platform=args.platform,
        )
    except (TraceError, ReplayError, KeyError) as exc:
        parser.error(str(exc))

    try:
        session = Session(
            scale="quick",  # replay rates are scale-independent (1-iteration cells)
            results_dir=args.results_dir,
            seed=args.seed,
            jobs=args.jobs,
            cache=not args.no_cache,
            verbose=not args.quiet,
        )
    except ValueError as exc:  # unparsable $REPRO_* value
        parser.error(str(exc))

    ext = "parquet" if args.sink == "parquet" else "csv"
    out = args.out or os.path.join(args.results_dir, f"replay_jobs.{ext}")
    summary_out = args.summary_out or os.path.join(
        args.results_dir, "replay.csv"
    )
    # test hook: SIGKILL this process right after the Nth chunk commit,
    # leaving exactly the on-disk state a real crash would.
    crash_after = os.environ.get("REPRO_REPLAY_CRASH_AFTER_CHUNKS")
    try:
        sink = make_sink(
            args.sink,
            out,
            JOB_COLUMNS,
            chunk_rows=args.chunk_rows,
            resume=args.resume,
            aggregate=ReplayAggregate(cluster.total_slots),
            crash_after_chunks=int(crash_after) if crash_after else None,
        )
    except (UnknownSinkError, SinkError) as exc:
        parser.error(str(exc))

    with session:
        try:
            result = replay(
                traces,
                cluster,
                runner=session.sweep,
                algorithm=args.algorithm,
                admission=args.admission,
                config=session.sim_config(),
                sink=sink,
                log=session.log,
            )
        except (ReplayError, UnknownAdmissionError) as exc:
            sink.close(complete=False)
            parser.error(str(exc))
        info = sink.close()
        summary = sink.aggregate.summary_rows()
        write_csv(summary_out, summary)
        if not args.quiet:
            print(format_table(summary))
            print(
                f"replay[{result.label}] {result.done}/{result.jobs} jobs, "
                f"{len(result.quarantined)} quarantined, {result.epochs} "
                f"epochs, {result.compositions} compositions, queue peak "
                f"{result.queue_peak}"
            )
            print(f"  jobs    -> {info['path']} ({info['rows']} rows, "
                  f"{info['chunks']} chunks)")
            print(f"  summary -> {summary_out}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "trace":
        return trace_main(argv[1:])
    if argv and argv[0] == "replay":
        return replay_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="tictac-repro",
        description="Regenerate the tables and figures of the TicTac paper.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        metavar="SCENARIO",
        help="which scenarios to run ('all' for every table/figure, "
        "'list' to enumerate scenarios/backends/exporters, "
        "'trace <scenario>' to capture a Perfetto trace, 'replay' to "
        "stream a job trace through the cluster scheduler): "
        + ", ".join(scenario_names()),
    )
    scale = parser.add_mutually_exclusive_group()
    scale.add_argument("--full", action="store_true",
                       help="paper-scale protocol (slow); default is quick scale")
    scale.add_argument("--quick", action="store_true",
                       help="force quick scale (overrides $REPRO_SCALE)")
    parser.add_argument("--results-dir", default="results")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--quiet", action="store_true")
    parser.add_argument("--jobs", "-j", type=int, default=None, metavar="N",
                        help="worker processes for the sweep runner "
                        "(default: $REPRO_JOBS or 1)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the on-disk sweep result cache")
    parser.add_argument("--rerun", action="store_true",
                        help="recompute every cell, refreshing cache entries")
    parser.add_argument("--cache-max-mb", type=float, default=None, metavar="MB",
                        help="size cap for the sweep cache; least-recently-"
                        "used entries are evicted after the run "
                        "(default: $REPRO_CACHE_MAX_MB or unbounded)")
    parser.add_argument("--cache-gc", action="store_true",
                        help="run the cache eviction pass (with --cache-max-mb,"
                        " or $REPRO_CACHE_MAX_MB, or 0 to empty); may be used "
                        "without naming any experiment")
    args = parser.parse_args(argv)
    if "list" in args.experiments:
        if len(args.experiments) > 1:
            parser.error("'list' cannot be combined with scenario names")
        print_listing()
        return 0
    if not args.experiments and not args.cache_gc:
        parser.error("name at least one scenario (or use 'list'/--cache-gc)")
    # fail fast on every named scenario (even alongside 'all'), with
    # near-match suggestions
    for name in args.experiments:
        if name == "all":
            continue
        try:
            scenario(name)
        except UnknownScenarioError as exc:
            parser.error(str(exc))
    names = (
        list(scenario_names())
        if "all" in args.experiments
        else list(args.experiments)
    )

    try:
        session = Session(
            scale="full" if args.full else ("quick" if args.quick else None),
            results_dir=args.results_dir,
            seed=args.seed,
            jobs=args.jobs,
            cache=not args.no_cache,
            rerun=args.rerun,
            verbose=not args.quiet,
            cache_max_mb=args.cache_max_mb,
        )
    except ValueError as exc:  # unknown $REPRO_SCALE, unparsable number
        parser.error(str(exc))
    with session:
        for name in names:
            session.log(
                f"=== {name} (scale={session.scale.name}, jobs={session.jobs}) ==="
            )
            result = session.run(name)
            paths = session.save(result)
            session.log(f"[{result.name}] csv -> {paths[result.name]}")
        if names and session.cache_dir is not None:
            session.log(f"sweep cache: {session.sweep.stats.as_dict()}")
        if args.cache_gc and session.cache_max_mb is None:
            session.cache_max_mb = 0.0  # explicit GC with no cap empties the cache
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
