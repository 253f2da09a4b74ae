"""Plain-text reporting: tables, bars, and timelines for experiment rows."""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.devices.machine import link_key

__all__ = ["format_table", "format_bars", "format_timeline", "format_hetero_timeline"]


def _fmt(value: object) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.3f}" if abs(value) < 100 else f"{value:.1f}"
    return str(value)


def format_table(
    rows: Sequence[Mapping[str, object]],
    title: str = "",
    columns: Sequence[str] | None = None,
) -> str:
    """Render row dicts as an aligned text table.

    ``columns`` picks and orders the keys to show (keys it does not name
    are ignored); the default is every key of the first row.
    """
    if not rows:
        return f"{title}\n(no rows)"
    columns = list(columns or rows[0].keys())
    cells = [[_fmt(r.get(c, "")) for c in columns] for r in rows]
    widths = [
        max(len(col), *(len(row[i]) for row in cells))
        for i, col in enumerate(columns)
    ]
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(col.ljust(w) for col, w in zip(columns, widths))
    lines.append(header)
    lines.append("-" * len(header))
    for row in cells:
        lines.append("  ".join(v.rjust(w) for v, w in zip(row, widths)))
    return "\n".join(lines)


def format_bars(
    rows: Sequence[Mapping[str, object]],
    label_key: str,
    value_key: str,
    title: str = "",
    width: int = 48,
) -> str:
    """Render a horizontal bar chart (one bar per row)."""
    if not rows:
        return f"{title}\n(no rows)"
    values = [float(r[value_key]) for r in rows]
    labels = [str(r[label_key]) for r in rows]
    peak = max(values) or 1.0
    label_w = max(len(l) for l in labels)
    lines = [title] if title else []
    for label, value in zip(labels, values):
        bar = "#" * max(1, round(width * value / peak))
        lines.append(f"{label.ljust(label_w)}  {bar} {value:.2f}")
    return "\n".join(lines)


def format_timeline(
    segments: Sequence[Mapping[str, object]],
    total_ms: float | None = None,
    width: int = 72,
    max_rows: int = 30,
    title: str = "",
) -> str:
    """Render kernel segments (from fig04_timeline) as an ASCII Gantt strip.

    Segments shorter than one cell are shown as a single mark; only the
    ``max_rows`` longest segments get their own labelled row.
    """
    if not segments:
        return f"{title}\n(no segments)"
    end = total_ms or max(float(s["end_ms"]) for s in segments)
    end = end or 1.0
    ordered = sorted(segments, key=lambda s: -float(s["duration_ms"]))[:max_rows]
    ordered.sort(key=lambda s: float(s["start_ms"]))
    lines = [title] if title else []
    lines.append(f"0 ms {' ' * (width - 12)} {end:.2f} ms")
    for seg in ordered:
        start = int(width * float(seg["start_ms"]) / end)
        span = max(1, int(width * float(seg["duration_ms"]) / end))
        strip = " " * start + "█" * min(span, width - start)
        name = str(seg["kernel"])
        if len(name) > 34:
            name = name[:31] + "..."
        lines.append(f"|{strip.ljust(width)}| {name} ({float(seg['duration_ms']):.2f} ms)")
    return "\n".join(lines)


def format_hetero_timeline(result, width: int = 72, title: str = "") -> str:
    """Render an ExecutionResult as one lane per device plus one per link.

    One character cell per time slice; ``█`` marks busy time.  Gives the
    Fig. 4-style at-a-glance view of how a heterogeneous plan overlaps the
    devices and where the transfers sit.  Lanes cover every device that ran
    a task or was an endpoint of a transfer; a single link in use is
    labelled ``pcie``, several are labelled by their device pair.
    """
    devices: dict[str, list] = {}
    links: dict[tuple[str, str], list] = {}
    for tr in result.transfers:
        devices.setdefault(tr.src_device, [])
        devices.setdefault(tr.dest_device, [])
        links.setdefault(link_key(tr.src_device, tr.dest_device), []).append(tr)
    for rec in result.tasks:
        devices.setdefault(rec.device, []).append(rec)
    spans = {name: devices[name] for name in sorted(devices)}
    for pair in sorted(links):
        spans["pcie" if len(links) == 1 else "-".join(pair)] = links[pair]
    end = max(
        [result.latency] + [s.finish for lane in spans.values() for s in lane]
    )
    end = end or 1.0
    label_w = max([4, *map(len, spans)])
    lines = [title] if title else []
    lines.append(f"total {end * 1e3:.3f} ms; one cell = {end / width * 1e3:.3f} ms")
    for name, lane in spans.items():
        cells = [" "] * width
        for span in lane:
            lo = int(width * span.start / end)
            hi = max(lo + 1, int(width * span.finish / end))
            for i in range(lo, min(hi, width)):
                cells[i] = "█"
        busy = sum(span.finish - span.start for span in lane)
        lines.append(
            f"{name:{label_w}s} |{''.join(cells)}| busy {busy * 1e3:7.3f} ms"
        )
    return "\n".join(lines)
