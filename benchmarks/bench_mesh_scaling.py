"""Mesh scaling: zoo models across 2/3/4-device meshes.

Expected shape: models with phases of 3+ independent subgraphs (mtdnn's
task heads, wide_deep's towers) pick up real speedup when a second GPU
joins the mesh, while chain-dominated models stay flat at ~1.0x — extra
devices cost nothing but buy nothing.  The scoreboard prices each rung
with the best policy's plan, so it reflects what the scheduler actually
achieves, not an idealized bound.
"""

from conftest import emit

from repro.bench import best_scaling_model, format_table, run_mesh_scaling


def test_mesh_scaling(benchmark):
    rows = benchmark.pedantic(
        run_mesh_scaling,
        kwargs={"device_counts": (2, 3, 4)},
        rounds=1,
        iterations=1,
    )
    emit(
        format_table(
            rows, title="Mesh scaling (best policy per model x mesh size)"
        )
    )
    model, speedup = best_scaling_model(rows, devices=3)
    emit(f"best 3-device scaler: {model} ({speedup:.3f}x vs 2-device best)")

    # Every (model, mesh size) rung produced a row.
    models = {r["model"] for r in rows}
    sizes = {r["devices"] for r in rows}
    assert sizes == {2, 3, 4}
    assert len(rows) == len(models) * len(sizes)

    # Growing the mesh never hurts: the 2-device machine's placements all
    # remain available, so the best makespan is monotone non-increasing.
    for name in models:
        by_size = sorted(
            (r["devices"], r["makespan_ms"]) for r in rows if r["model"] == name
        )
        for (_, prev), (_, cur) in zip(by_size, by_size[1:]):
            assert cur <= prev * 1.0001

    # The tentpole claim: at least one zoo model exploits the third device.
    assert speedup > 1.0
