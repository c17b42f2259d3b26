"""Per-layer metrics of a traced run.

Every workload reports every metric; a layer that does no work on a
workload reports 0 there (``sim`` and ``net`` on ``record-path``,
``runtime`` outside ``abr-fleet``...).  ``perfbench/README.md`` lists
which end-to-end metric each layer metric should move, on which
workload.
"""

from __future__ import annotations

from repro.experiments.base import all_figures

from measure import median

#: Layers with per-play event and self-time metrics besides sim/net.
PLAY_LAYERS = ("transport", "server", "player", "abr")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(workload, tracer, passes) -> dict[str, tuple[float, str]]:
    """``passes`` is the untraced reference pass (on ``abr-fleet`` the
    pool run) and the traced pass."""
    reference, traced = passes
    # Plays after the study's own belong to figure rendering (fig01
    # simulates a timeline play).
    simulated = workload.unit == "plays"
    rows = tracer.plays[: traced.attempted] if simulated else []
    plays = len(rows)
    records = traced.delivered

    def total(key):
        return sum(row[key] for row in rows)

    def layer_total(key, layer):
        return sum(row[key][layer] for row in rows)

    events = sum(sum(row["events"].values()) for row in rows)
    builds = [row["build_ns"] for row in rows if row["build_ns"]]
    metrics: dict[str, tuple[float, str]] = {
        "sim.events_per_play": (_ratio(events, plays), "count"),
        "sim.timer_events_per_play": (
            _ratio(total("timer_events"), plays), "count"),
        "sim.dispatch_ns_per_event": (
            _ratio(total("run_ns") - total("callback_ns"), events), "ns"),
        "net.events_per_play": (
            _ratio(layer_total("events", "net"), plays), "count"),
        "net.link_events_per_play": (
            _ratio(total("link_events"), plays), "count"),
        "net.cross_events_per_play": (
            _ratio(total("cross_events"), plays), "count"),
        "net.self_ns_per_event": (_ratio(
            layer_total("self_ns", "net"), layer_total("events", "net")),
            "ns"),
        "net.self_s_per_play": (
            _ratio(layer_total("self_ns", "net") / 1e9, plays), "s"),
        "net.path_build_ms": (_ratio(sum(builds) / 1e6, len(builds)), "ms"),
        "net.cross_packets_per_play": (
            _ratio(total("cross_packets"), plays), "count"),
        "net.queue_drops_per_play": (
            _ratio(total("queue_drops"), plays), "count"),
        "net.random_drops_per_play": (
            _ratio(total("random_drops"), plays), "count"),
    }
    for layer in PLAY_LAYERS:
        metrics[f"{layer}.events_per_play"] = (
            _ratio(layer_total("events", layer), plays), "count")
        metrics[f"{layer}.self_s_per_play"] = (
            _ratio(layer_total("self_ns", layer) / 1e9, plays), "s")
    played = traced.facts.get("records", []) if simulated else []
    metrics["player.rebuffers_per_play"] = (
        _ratio(sum(r.rebuffer_count for r in played), len(played)), "count")
    metrics["abr.switches_per_play"] = (
        _ratio(sum(r.switch_count for r in played), len(played)), "count")
    metrics["core.tracer_overhead_ms_per_play"] = (_ratio(
        (total("play_ns") - total("run_ns") - total("build_ns")) / 1e6,
        plays), "ms")

    pool = reference if workload.name == "abr-fleet" else None
    manifest = pool.facts["manifest"] if pool is not None else {}
    metrics.update({
        "runtime.worker_utilization": (
            float(manifest.get("worker_utilization", 0.0)), "share"),
        "runtime.shard_s_p50": (
            median(pool.facts["shard_s"]) if pool else 0.0, "s"),
        "runtime.tail_s": (pool.facts["tail_s"] if pool else 0.0, "s"),
        "runtime.merge_s": (pool.facts["merge_s"] if pool else 0.0, "s"),
        "runtime.retries": (float(manifest.get("retries", 0)), "count"),
    })

    def span_ns(name):
        return sum(tracer.stage_ns(name))

    merge_ns = span_ns("spill.merge")
    # The CSV step streams the spill merge on the sketch record path;
    # its export share is what remains after a merge-only pass.
    csv_ns = traced.step("csv_export", corrected=False) * 1e9 - merge_ns
    metrics.update({
        "spill.write_ns_per_record": (
            _ratio(span_ns("spill.write"), records), "ns"),
        "spill.bytes_per_record": (
            _ratio(traced.facts.get("spill_bytes", 0), records), "bytes"),
        "spill.merge_ns_per_record": (_ratio(merge_ns, records), "ns"),
        "analysis.aggregate_ns_per_record": (
            _ratio(span_ns("analysis.aggregate"), records), "ns"),
        "analysis.merge_ms": (span_ns("analysis.merge") / 1e6, "ms"),
        "export.csv_ns_per_record": (_ratio(csv_ns, records), "ns"),
        "sweep.cache_store_ms": (
            traced.step("cache_store", corrected=False) * 1e3, "ms"),
        "sweep.cache_load_ns_per_record": (_ratio(
            traced.step("cache_hit", corrected=False) * 1e9, records), "ns"),
        "sweep.cache_bytes": (float(traced.facts["cache_bytes"]), "bytes"),
        "experiments.render_ms": (
            traced.step("figures", corrected=False) * 1e3, "ms"),
    })
    for figure in all_figures():
        seconds = traced.figure_s.get(figure.figure_id, 0.0)
        metrics[f"experiments.render_ms.{figure.figure_id}"] = (
            seconds * 1e3, "ms")
    # Both walls corrected for the host's slowdown.  The pool's wall
    # is shared by its workers: against the serial traced pass its
    # study counts as the sum of its plays, their serial cost.
    untraced = reference.wall_s()
    if pool is not None:
        untraced += sum(pool.play_corrected) - pool.step("study")
    metrics["trace.overhead_share"] = (
        traced.wall_s() / untraced - 1.0, "share")
    return metrics
