"""Adaptive serving: DUET re-schedules itself when the machine drifts.

Serves 80 Wide&Deep requests.  From request 25 a co-tenant steals most of
the CPU (4x slowdown); around request 55 it leaves again.  Watch the
adaptive engine's latency track the environment while a static plan stays
stuck with its offline decision.

Run:  python examples/adaptive_serving.py
"""

from __future__ import annotations

from repro.core import AdaptiveDuetEngine, DuetEngine
from repro.devices import Machine, default_machine, scale_device
from repro.models import build_model
from repro.runtime import simulate


def main() -> None:
    base = default_machine(noisy=False)
    contended = Machine(
        devices=(scale_device(base.device("cpu"), 4.0), base.device("gpu")),
        links=base.links,
    )
    graph = build_model("wide_deep")

    adaptive = AdaptiveDuetEngine(base_machine=base, cooldown=5)
    adaptive.start(graph)
    static_plan = DuetEngine(machine=base).optimize(graph).plan

    print("request | environment | adaptive (ms) | static (ms) | note")
    print("-" * 68)
    for i in range(80):
        if i < 25:
            machine, env = base, "nominal  "
        elif i < 55:
            machine, env = contended, "contended"
        else:
            machine, env = base, "recovered"
        rec = adaptive.serve_one(machine)
        static_ms = simulate(static_plan, machine).latency * 1e3
        note = ""
        if rec.adapted:
            note = (
                f"ADAPTED: cpu belief x{rec.assumed_slowdown['cpu']:.2f}, "
                f"placement {sorted(rec.placement.items())}"
            )
        if i % 5 == 0 or rec.adapted:
            print(
                f"{rec.index:7d} | {env} | {rec.latency * 1e3:13.2f} | "
                f"{static_ms:11.2f} | {note}"
            )

    print(
        f"\n{adaptive.adaptations} adaptations total; final machine belief: "
        f"cpu x{adaptive.assumed_slowdown['cpu']:.2f}, "
        f"gpu x{adaptive.assumed_slowdown['gpu']:.2f}"
    )


if __name__ == "__main__":
    main()
