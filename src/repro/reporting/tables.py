"""Plain-text table rendering for the benchmark harness.

Every benchmark target under ``benchmarks/`` regenerates one of the paper's
tables or figures and prints it with these helpers, so the harness output can
be compared side-by-side with the paper (see EXPERIMENTS.md).
"""

from __future__ import annotations

from typing import Iterable, Sequence


def format_table(title: str, headers: Sequence[str],
                 rows: Iterable[Sequence[object]]) -> str:
    """Render a simple aligned text table with a title line."""
    materialised = [[_format_cell(cell) for cell in row] for row in rows]
    widths = [len(str(header)) for header in headers]
    for row in materialised:
        for index, cell in enumerate(row):
            if index < len(widths):
                widths[index] = max(widths[index], len(cell))
            else:
                widths.append(len(cell))
    lines = [title, "-" * len(title)]
    # rstrip: the last column's ljust padding would otherwise leave trailing
    # whitespace on every line.
    lines.append("  ".join(str(header).ljust(widths[i])
                           for i, header in enumerate(headers)).rstrip())
    for row in materialised:
        lines.append("  ".join(cell.ljust(widths[i])
                               for i, cell in enumerate(row)).rstrip())
    return "\n".join(lines)


def _format_cell(cell: object) -> str:
    if isinstance(cell, float):
        if cell >= 1000:
            return f"{cell:,.0f}"
        return f"{cell:.2f}"
    return str(cell)


def format_series(title: str, points: Iterable[tuple[object, object]],
                  x_label: str = "x", y_label: str = "y") -> str:
    """Render an (x, y) data series as the two columns of a figure."""
    return format_table(title, [x_label, y_label], [list(point) for point in points])


def format_frontier(title: str, frontier) -> str:
    """Render a :class:`repro.analysis.pareto.ParetoFrontier` as a table.

    One row per non-dominated point, sorted by energy; the header notes how
    many swept points the frontier condensed.
    """
    rows = [[point.label, round(point.improvement, 1), round(point.energy_pct, 1),
             round(point.area_pct, 1), round(point.exec_time_pct, 1)]
            for point in frontier.points()]
    return format_table(
        f"{title} ({len(frontier)} non-dominated of {frontier.seen} swept)",
        ["combination", "improvement", "energy %", "area %", "exec time %"], rows)


def format_frontier_comparison(title: str, named_frontiers,
                               thresholds: Sequence[float] = (10.0, 50.0)) -> str:
    """Compare frontiers across runs (e.g. loaded from the frontier store).

    ``named_frontiers`` is an iterable of ``(name, ParetoFrontier)`` pairs --
    typically each persisted run plus their merge.  Per frontier the table
    reports coverage, the best achieved improvement, and the cheapest energy
    buying each improvement threshold (``-`` when the threshold is out of
    reach).
    """
    rows = []
    for name, frontier in named_frontiers:
        best = max((p.improvement for p in frontier.points()), default=0.0)
        row = [name, len(frontier), frontier.seen, round(best, 1)]
        for threshold in thresholds:
            cheapest = frontier.cheapest_at_least(threshold)
            row.append("-" if cheapest is None
                       else f"{cheapest.energy_pct:.1f}%")
        rows.append(row)
    headers = ["run", "points", "swept", "best improvement"]
    headers.extend(f"energy @ >={threshold:g}x" for threshold in thresholds)
    return format_table(title, headers, rows)


def format_replay_telemetry(named_results,
                            title: str = "Replay telemetry") -> str:
    """Render per-campaign replay cost telemetry as a table.

    ``named_results`` is an iterable of ``(name, CampaignResult)`` pairs.
    Per campaign the table reports the simulated replay cycles, how much of
    that work ran inside batched lockstep wavefronts, how many runs the
    wavefronts evicted to the scalar path, and what convergence gating
    saved.  All-zero lockstep/evicted columns simply mean the campaign ran
    with ``batch_width`` off.
    """
    rows = []
    for name, result in named_results:
        rows.append([
            name,
            result.injections,
            result.replayed_cycles,
            f"{100 * result.lockstep_cycle_fraction:.0f}%",
            f"{100 * result.evicted_fraction:.0f}%",
            f"{100 * result.converged_fraction:.0f}%",
            f"{100 * result.saved_cycle_fraction:.0f}%",
        ])
    return format_table(
        title,
        ["campaign", "injections", "replayed cycles", "lockstep",
         "evicted", "converged", "cycles saved"],
        rows)


def format_convergence_summary(named_profiles,
                               title: str = "Convergence gate") -> str:
    """Render per-group convergence-gate telemetry as a table.

    ``named_profiles`` is an iterable of ``(name, profile)`` pairs where each
    profile exposes ``injections``, ``converged_count``, ``saved_cycles`` and
    ``replayed_cycles`` (e.g. a sweep's
    :class:`~repro.workloads.synthesis.sweep.ProfileVulnerability` entries or
    campaign results).  One row per group plus a total row: how many replays
    the fingerprint gate decided early, the converged fraction, and the
    cycles that early-outs skipped versus the cycles actually simulated.
    """
    rows = []
    total = [0, 0, 0, 0]
    for name, profile in named_profiles:
        injections = profile.injections
        converged = profile.converged_count
        fraction = converged / injections if injections else 0.0
        rows.append([name, injections, converged, f"{100 * fraction:.1f}%",
                     profile.saved_cycles, profile.replayed_cycles])
        total[0] += injections
        total[1] += converged
        total[2] += profile.saved_cycles
        total[3] += profile.replayed_cycles
    share = total[1] / total[0] if total[0] else 0.0
    rows.append(["total", total[0], total[1], f"{100 * share:.1f}%",
                 total[2], total[3]])
    return format_table(
        title,
        ["group", "injections", "converged", "fraction", "saved cycles",
         "replayed cycles"],
        rows)


def format_phase_breakdown(result_or_metrics,
                           title: str = "Phase breakdown") -> str:
    """Render the per-phase replay cost of one campaign as a table.

    Accepts a :class:`~repro.faultinjection.campaign.CampaignResult` (uses
    its ``metrics`` document), a :class:`~repro.obs.MetricsRegistry`, or a
    ``to_dict`` metrics document.  One row per phase of
    :data:`repro.obs.phases.PHASE_TABLE`: cycles attributed to the phase,
    its share of the replayed-cycle total (``-`` for skipped-work rows,
    which are not part of that total), and accumulated wall-clock seconds
    when the campaign ran with ``EngineConfig(metrics=True)``.  The final
    row restates the replayed-cycle total, which reconciles exactly with
    ``CampaignResult.replayed_cycles``.
    """
    from repro.obs.phases import (PHASE_TABLE, REPLAY_CYCLE_COUNTERS,
                                  counters_of, replayed_cycle_total)

    metrics = getattr(result_or_metrics, "metrics", result_or_metrics)
    if metrics is None:
        metrics = {}
    counters = counters_of(metrics)
    timers = getattr(metrics, "timers", None)
    if timers is None and isinstance(metrics, dict):
        timers = metrics.get("timers", {})
    timers = timers or {}
    replayed = replayed_cycle_total(metrics)
    timed = bool(timers)

    def seconds_of(name):
        entry = timers.get(name)
        if entry is None:
            return None
        return entry[0] if isinstance(entry, list) else entry["seconds"]

    rows = []
    for label, counter, timer_name in PHASE_TABLE:
        cycles = counters.get(counter, 0)
        in_total = counter in REPLAY_CYCLE_COUNTERS
        share = (f"{100 * cycles / replayed:.1f}%"
                 if in_total and replayed else "-")
        row = [label, cycles, share]
        if timed:
            seconds = seconds_of(timer_name) if timer_name else None
            row.append("-" if seconds is None else f"{seconds:.3f}s")
        rows.append(row)
    total_row = ["replayed total", replayed, "100.0%" if replayed else "-"]
    if timed:
        total_row.append("-")
    rows.append(total_row)
    headers = ["phase", "cycles", "share"]
    if timed:
        headers.append("wall")
    return format_table(title, headers, rows)


def format_golden_cache_stats(cache, title: str = "Golden-run cache") -> str:
    """Render a :class:`repro.engine.GoldenRunCache` health readout.

    Accepts a cache or an already-captured
    :class:`~repro.engine.GoldenCacheStats` (the sweep runners aggregate the
    latter across workers).  A hit rate near zero on a repeated-workload run
    means the cache is thrashing: pass the runs one shared
    ``GoldenRunCache(max_entries=n)`` with ``n`` at least the number of
    distinct programs, so golden runs stop being re-recorded.  (A single
    synthetic sweep visits each program once, so its hit rate is always
    zero.)  ``loaded`` vs ``recorded`` splits the misses: loaded golden runs
    came from the persistent artifact store
    (``EngineConfig(artifact_dir=...)``), recorded ones were simulated from
    cycle 0.
    """
    stats = cache.stats() if hasattr(cache, "stats") else cache
    return format_table(title,
                        ["hits", "misses", "hit rate", "loaded", "recorded",
                         "entries", "capacity"],
                        [[stats.hits, stats.misses,
                          f"{100 * stats.hit_rate:.0f}%",
                          stats.artifacts_loaded, stats.recorded,
                          stats.entries, stats.max_entries]])


def format_artifact_store_stats(store,
                                title: str = "Golden-artifact store",
                                manifest=None) -> str:
    """Render a :class:`repro.engine.GoldenArtifactStore` health readout.

    Accepts a store or an already-captured
    :class:`~repro.engine.ArtifactStoreStats`.  ``loaded`` / ``saved`` /
    ``errors`` count this process's traffic; ``entries`` / ``on disk``
    census the directory, which other processes share.  A non-zero error
    count means defective blobs were encountered (and transparently
    re-recorded) or the filesystem refused writes.

    Pass the manifest recorded alongside the artefacts (a
    :class:`~repro.obs.RunManifest` or its dict) to append a provenance
    line: artefacts written by a different package version or git revision
    are flagged, since they are not bit-exact replay targets for this
    build.
    """
    stats = store.stats() if hasattr(store, "stats") else store
    kib = stats.size_bytes / 1024
    table = format_table(title,
                         ["loaded", "saved", "errors", "entries", "on disk"],
                         [[stats.loaded, stats.saved, stats.errors,
                           stats.entries, f"{kib:.0f} KiB"]])
    if manifest is not None:
        from repro.obs import manifest_drift

        drift = manifest_drift(manifest)
        note = ("provenance: matches this environment" if not drift
                else "provenance DRIFT: " + "; ".join(drift))
        table = f"{table}\n{note}"
    return table
