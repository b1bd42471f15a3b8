#!/usr/bin/env python3
"""Plot the CSV series and JSONL event logs under target/experiments.

Usage:
    cargo bench --workspace                 # writes target/experiments/<id>/*.csv
    cargo run --example observed_stream     # a JsonlObserver writes .../events.jsonl
    python3 scripts/plot_experiments.py     # writes target/experiments/<id>.svg

Each figure directory becomes one SVG with all its series overlaid —
matching the layout of the corresponding figure in the paper. Directories
holding an `events.jsonl` (written by pier-observe's JsonlObserver) become
a timeline SVG instead: cumulative comparisons/matches, adaptive-K steps,
and per-phase time share. Requires matplotlib; falls back to a textual
summary when it is unavailable.
"""

from __future__ import annotations

import csv
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_CANDIDATES = [
    ROOT / "target" / "experiments",
    ROOT / "crates" / "bench" / "target" / "experiments",  # older runs
]
EXPERIMENTS = next((p for p in _CANDIDATES if p.is_dir()), _CANDIDATES[0])


def load_series(path: Path) -> tuple[str, list[float], list[float]]:
    with path.open() as fh:
        reader = csv.reader(fh)
        header = next(reader)
        xs, ys = [], []
        for row in reader:
            xs.append(float(row[0]))
            ys.append(float(row[1]))
    return header[0], xs, ys


def load_events(path: Path) -> list[dict]:
    """One flat JSON object per line, as written by JsonlObserver.

    Unparseable lines are skipped with a warning: a run killed mid-write
    legitimately leaves a truncated final line in the buffered log.
    """
    events = []
    skipped = 0
    with path.open() as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError:
                skipped += 1
    if skipped:
        print(f"warning: {path}: skipped {skipped} unparseable line(s)")
    return events


def cumulative(events: list[dict], kind: str) -> tuple[list[float], list[int]]:
    """Receive-time timeline of the running count of one event kind."""
    ts, counts = [], []
    n = 0
    for ev in events:
        if ev["event"] == kind:
            n += 1
            ts.append(ev["t"])
            counts.append(n)
    return ts, counts


def summarize_events(name: str, events: list[dict]) -> None:
    by_kind: dict[str, int] = {}
    for ev in events:
        by_kind[ev["event"]] = by_kind.get(ev["event"], 0) + 1
    span = events[-1]["t"] - events[0]["t"] if events else 0.0
    kinds = ", ".join(f"{k}={n}" for k, n in sorted(by_kind.items()))
    print(f"{name}/events.jsonl: {len(events)} events over {span:.3f}s ({kinds})")


def plot_events(name: str, events: list[dict], out: Path, plt) -> None:
    """Timeline figure: cumulative work, adaptive K, and phase time share."""
    fig, (ax_top, ax_bottom) = plt.subplots(
        2, 1, figsize=(8, 7), gridspec_kw={"height_ratios": [3, 1]}
    )

    for kind, style in [
        ("ComparisonEmitted", dict(color="tab:blue", label="comparisons emitted")),
        ("CfFiltered", dict(color="tab:gray", label="cf-filtered", linestyle=":")),
        ("MatchConfirmed", dict(color="tab:green", label="matches confirmed")),
    ]:
        ts, counts = cumulative(events, kind)
        if ts:
            ax_top.plot(ts, counts, linewidth=1.2, **style)
    ax_top.set_xlabel("seconds since run start")
    ax_top.set_ylabel("cumulative events")
    ax_top.set_title(f"{name} — event timeline")
    ax_top.grid(True, alpha=0.3)

    k_steps = [(ev["t"], ev["new_k"]) for ev in events if ev["event"] == "AdaptiveKChanged"]
    if k_steps:
        ax_k = ax_top.twinx()
        ax_k.step(
            [t for t, _ in k_steps],
            [k for _, k in k_steps],
            where="post",
            color="tab:red",
            linewidth=1.0,
            label="adaptive K",
        )
        ax_k.set_ylabel("K", color="tab:red")
    ax_top.legend(fontsize=7, loc="upper left")

    # Bottom panel: where the pipeline spent its time, per phase.
    phase_totals: dict[str, float] = {}
    for ev in events:
        if ev["event"] == "PhaseTiming":
            phase_totals[ev["phase"]] = phase_totals.get(ev["phase"], 0.0) + ev["secs"]
    if phase_totals:
        phases = sorted(phase_totals)
        ax_bottom.bar(phases, [phase_totals[p] for p in phases], color="tab:purple")
        ax_bottom.set_ylabel("total seconds")
        ax_bottom.set_title("time per phase", fontsize=9)
        ax_bottom.grid(True, axis="y", alpha=0.3)
    else:
        ax_bottom.axis("off")

    fig.savefig(out, bbox_inches="tight")
    plt.close(fig)
    print(f"wrote {out}")


def plot_shard_scaling(name: str, csvs: list[Path], out: Path, plt) -> None:
    """Two-panel shard-scaling figure: stage-A throughput vs shard count,
    and the PC-over-time overlay of the sharded vs unsharded runtime."""
    series = {path.stem: load_series(path) for path in csvs}
    fig, (ax_tp, ax_pc) = plt.subplots(1, 2, figsize=(11, 4.5))

    for stem, style in [
        ("critical_path_throughput", dict(color="tab:blue", marker="o", label="critical path")),
        (
            "threaded_wall_clock_throughput",
            dict(color="tab:gray", marker="s", linestyle="--", label="threaded wall clock"),
        ),
    ]:
        if stem in series:
            _, xs, ys = series[stem]
            ax_tp.plot(xs, ys, linewidth=1.2, **style)
    ax_tp.set_xscale("log", base=2)
    ax_tp.set_xticks([1, 2, 4, 8], labels=["1", "2", "4", "8"])
    ax_tp.set_xlabel("shards")
    ax_tp.set_ylabel("stage-A profiles/s")
    ax_tp.set_title("throughput vs shard count", fontsize=9)
    ax_tp.grid(True, alpha=0.3)
    ax_tp.legend(fontsize=7)

    for stem, style in [
        ("pc_over_time_sharded4", dict(color="tab:blue", label="sharded (4)")),
        ("pc_over_time_unsharded", dict(color="tab:orange", linestyle="--", label="unsharded")),
    ]:
        if stem in series:
            x_name, xs, ys = series[stem]
            ax_pc.plot(xs, ys, linewidth=1.2, **style)
            ax_pc.set_xlabel(x_name)
    ax_pc.set_ylabel("pair completeness")
    ax_pc.set_ylim(-0.02, 1.02)
    ax_pc.set_title("recall over time (same budget)", fontsize=9)
    ax_pc.grid(True, alpha=0.3)
    ax_pc.legend(fontsize=7, loc="lower right")

    fig.suptitle(name)
    fig.savefig(out, bbox_inches="tight")
    plt.close(fig)
    print(f"wrote {out}")


def plot_matcher_throughput(name: str, csvs: list[Path], out: Path, plt) -> None:
    """Two-panel stage-B figure: Myers kernel speedup over the naive DP
    per string length, and executor comparisons/s vs match workers."""
    series = {path.stem: load_series(path) for path in csvs}
    fig, (ax_kernel, ax_exec) = plt.subplots(1, 2, figsize=(11, 4.5))

    if "kernel_speedup" in series:
        _, xs, ys = series["kernel_speedup"]
        ax_kernel.plot(xs, ys, color="tab:green", marker="o", linewidth=1.2)
        ax_kernel.axhline(5.0, color="tab:red", linestyle=":", linewidth=1.0, label="5x contract")
        ax_kernel.set_xscale("log", base=2)
        ax_kernel.set_xticks(xs, labels=[str(int(x)) for x in xs])
    ax_kernel.set_xlabel("string length (chars)")
    ax_kernel.set_ylabel("speedup over naive DP")
    ax_kernel.set_title("Myers bit-parallel Levenshtein", fontsize=9)
    ax_kernel.grid(True, alpha=0.3)
    ax_kernel.legend(fontsize=7)

    for stem, style in [
        ("critical_path_throughput", dict(color="tab:blue", marker="o", label="critical path")),
        (
            "threaded_wall_clock_throughput",
            dict(color="tab:gray", marker="s", linestyle="--", label="threaded wall clock"),
        ),
    ]:
        if stem in series:
            _, xs, ys = series[stem]
            ax_exec.plot(xs, ys, linewidth=1.2, **style)
    ax_exec.set_xscale("log", base=2)
    ax_exec.set_xticks([1, 2, 4, 8], labels=["1", "2", "4", "8"])
    ax_exec.set_xlabel("match workers")
    ax_exec.set_ylabel("stage-B comparisons/s")
    ax_exec.set_title("parallel match executor (ED matcher)", fontsize=9)
    ax_exec.grid(True, alpha=0.3)
    ax_exec.legend(fontsize=7)

    fig.suptitle(name)
    fig.savefig(out, bbox_inches="tight")
    plt.close(fig)
    print(f"wrote {out}")


def plot_metrics_overhead(name: str, csvs: list[Path], out: Path, plt) -> None:
    """Two-panel telemetry figure: the live registry timelines sampled
    mid-run (queue depths + cumulative comparisons on the left, the recall
    estimate on the right), with the measured metered-vs-noop overhead of
    the metrics sink in the title."""
    series = {path.stem: load_series(path) for path in csvs}
    fig, (ax_q, ax_r) = plt.subplots(1, 2, figsize=(11, 4.5))

    for stem, style in [
        ("queue_depth_increments", dict(color="tab:blue", label="increments queue")),
        ("queue_depth_matches", dict(color="tab:orange", linestyle="--", label="matches queue")),
    ]:
        if stem in series:
            x_name, xs, ys = series[stem]
            ax_q.plot(xs, ys, linewidth=1.2, **style)
            ax_q.set_xlabel(x_name)
    ax_q.set_ylabel("queue depth (messages)")
    if "comparisons_total" in series:
        _, xs, ys = series["comparisons_total"]
        ax_c = ax_q.twinx()
        ax_c.plot(xs, ys, color="tab:gray", linewidth=1.0, alpha=0.7)
        ax_c.set_ylabel("comparisons total", color="tab:gray")
    ax_q.set_title("live queue gauges during a run", fontsize=9)
    ax_q.grid(True, alpha=0.3)
    ax_q.legend(fontsize=7, loc="upper right")

    if "recall_trajectory" in series:
        x_name, xs, ys = series["recall_trajectory"]
        ax_r.plot(xs, ys, color="tab:green", linewidth=1.2, label="pier_recall_estimate")
        ax_r.set_xlabel(x_name)
    ax_r.set_ylabel("recall estimate")
    ax_r.set_ylim(-0.02, 1.02)
    ax_r.set_title("recall gauge sampled from the registry", fontsize=9)
    ax_r.grid(True, alpha=0.3)
    ax_r.legend(fontsize=7, loc="lower right")

    title = name
    if "overhead_pct" in series:
        _, _, ys = series["overhead_pct"]
        if ys:
            title = f"{name} — metered-vs-noop overhead {ys[-1]:.2f}% (contract < 5%)"
    fig.suptitle(title)
    fig.savefig(out, bbox_inches="tight")
    plt.close(fig)
    print(f"wrote {out}")


def plot_cluster_throughput(name: str, csvs: list[Path], out: Path, plt) -> None:
    """Three-panel entity-index figure: merge-apply rate as the union-find
    warms up, the final cluster-size distribution of a real streaming run,
    and point-lookup latency percentiles under concurrent merge load, with
    the measured clustered-vs-noop overhead of the index in the title."""
    series = {path.stem: load_series(path) for path in csvs}
    fig, (ax_rate, ax_dist, ax_lat) = plt.subplots(1, 3, figsize=(13, 4.2))

    if "apply_rate" in series:
        x_name, xs, ys = series["apply_rate"]
        ax_rate.plot(xs, [y / 1e6 for y in ys], color="tab:blue", linewidth=1.2)
        ax_rate.set_xlabel(x_name)
    ax_rate.set_ylabel("applies / µs")
    ax_rate.set_title("merge-apply rate over the match stream", fontsize=9)
    ax_rate.grid(True, alpha=0.3)

    if "cluster_size_distribution" in series:
        x_name, xs, ys = series["cluster_size_distribution"]
        ax_dist.bar(xs, ys, color="tab:green", width=0.8)
        ax_dist.set_xlabel("cluster size")
        if ys and max(ys) / max(min(y for y in ys if y > 0), 1) > 50:
            ax_dist.set_yscale("log")
    ax_dist.set_ylabel("clusters")
    ax_dist.set_title("cluster-size distribution (streaming run)", fontsize=9)
    ax_dist.grid(True, axis="y", alpha=0.3)

    if "query_latency_ns" in series:
        _, xs, ys = series["query_latency_ns"]
        labels = [f"p{int(x)}" for x in xs]
        ax_lat.bar(labels, [y / 1e3 for y in ys], color="tab:orange")
    ax_lat.set_ylabel("lookup latency (µs)")
    ax_lat.set_title("point queries under merge load", fontsize=9)
    ax_lat.grid(True, axis="y", alpha=0.3)

    title = name
    if "overhead_pct" in series:
        _, _, ys = series["overhead_pct"]
        if ys:
            title = f"{name} — clustered-vs-noop overhead {ys[-1]:.2f}% (contract < 5%)"
    fig.suptitle(title)
    fig.savefig(out, bbox_inches="tight")
    plt.close(fig)
    print(f"wrote {out}")


def main() -> int:
    if not EXPERIMENTS.is_dir():
        # Nothing to plot is not an error: CI invokes this unconditionally
        # and benches may not have run on this job.
        print(f"no {EXPERIMENTS} — run `cargo bench --workspace` first")
        return 0
    try:
        import matplotlib

        matplotlib.use("svg")
        import matplotlib.pyplot as plt
    except ImportError:
        plt = None
        print("matplotlib unavailable — printing summaries only", file=sys.stderr)

    for figure_dir in sorted(p for p in EXPERIMENTS.iterdir() if p.is_dir()):
        jsonl = figure_dir / "events.jsonl"
        if jsonl.is_file():
            events = load_events(jsonl)
            if plt is None or not events:
                summarize_events(figure_dir.name, events)
            else:
                plot_events(
                    figure_dir.name, events, EXPERIMENTS / f"{figure_dir.name}.events.svg", plt
                )
            continue
        csvs = sorted(figure_dir.glob("*.csv"))
        if not csvs:
            continue
        if plt is None:
            for path in csvs:
                x_name, xs, ys = load_series(path)
                final = ys[-1] if ys else float("nan")
                print(f"{figure_dir.name}/{path.stem}: final y={final:.3f} over {x_name}")
            continue
        if figure_dir.name == "shard_scaling":
            plot_shard_scaling(
                figure_dir.name, csvs, EXPERIMENTS / f"{figure_dir.name}.svg", plt
            )
            continue
        if figure_dir.name == "matcher_throughput":
            plot_matcher_throughput(
                figure_dir.name, csvs, EXPERIMENTS / f"{figure_dir.name}.svg", plt
            )
            continue
        if figure_dir.name == "metrics_overhead":
            plot_metrics_overhead(
                figure_dir.name, csvs, EXPERIMENTS / f"{figure_dir.name}.svg", plt
            )
            continue
        if figure_dir.name == "cluster_throughput":
            plot_cluster_throughput(
                figure_dir.name, csvs, EXPERIMENTS / f"{figure_dir.name}.svg", plt
            )
            continue
        fig, ax = plt.subplots(figsize=(8, 5))
        x_label = "x"
        for path in csvs:
            x_name, xs, ys = load_series(path)
            x_label = x_name
            ax.plot(xs, ys, label=path.stem, linewidth=1.2)
        ax.set_xlabel(x_label)
        ax.set_ylabel("pair completeness")
        ax.set_title(figure_dir.name)
        ax.set_ylim(-0.02, 1.02)
        ax.grid(True, alpha=0.3)
        ax.legend(fontsize=6, ncol=2, loc="lower right")
        out = EXPERIMENTS / f"{figure_dir.name}.svg"
        fig.savefig(out, bbox_inches="tight")
        plt.close(fig)
        print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
