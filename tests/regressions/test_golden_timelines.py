"""Regression pin: simulated timelines are bit-identical to the fixture.

Every public entry point of the timeline engine — ``simulate`` (mean and
sampled; lazy and ``overlap=True``), ``simulate_batch`` and
``simulate_stream`` — is replayed on three multi-branch zoo models on the
default machine and on a 2-GPU mesh.  Latencies and every task/transfer
start and finish are compared through ``float.hex()``, so a reordered
noise draw, a changed accumulation order or a last-ulp drift on the
virtual clock fails.  To regenerate after an *intentional* change to the
executor semantics::

    REPRO_UPDATE_GOLDENS=1 PYTHONPATH=src python -m pytest \
        tests/regressions/test_golden_timelines.py -q

and review/commit the fixture diff.
"""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.core.engine import DuetEngine
from repro.devices import default_machine, make_mesh
from repro.models.zoo import build_model
from repro.runtime import simulate, simulate_batch, simulate_stream

_FIXTURE = Path(__file__).parent / "fixtures" / "golden_timelines.json"
_MODELS = ("wide_deep", "siamese", "mtdnn")
_MACHINES = {"default": default_machine, "mesh2": lambda: make_mesh(2)}
_SEED = 20210517


def _timeline(result) -> dict:
    return {
        "latency": result.latency.hex(),
        "tasks": [
            [t.task_id, t.device, t.start.hex(), t.finish.hex()]
            for t in result.tasks
        ],
        "transfers": [
            [t.what, t.dest_device, t.start.hex(), t.finish.hex()]
            for t in result.transfers
        ],
    }


def _capture(model: str, machine_name: str) -> dict:
    machine = _MACHINES[machine_name]()
    plan = DuetEngine(machine=machine).optimize(build_model(model)).plan

    def rng():
        return np.random.default_rng(_SEED)

    stream = simulate_stream(
        plan, machine, n_requests=5, interarrival_s=1e-3, rng=rng()
    )
    return {
        "mean_lazy": _timeline(simulate(plan, machine)),
        "mean_overlap": _timeline(simulate(plan, machine, overlap=True)),
        "sampled_lazy": _timeline(simulate(plan, machine, rng())),
        "sampled_overlap": _timeline(
            simulate(plan, machine, rng(), overlap=True)
        ),
        "batch8": [float(x).hex() for x in simulate_batch(plan, machine, rng(), 8)],
        "stream": {
            "latencies": [x.hex() for x in stream.latencies],
            "makespan": stream.makespan.hex(),
            "throughput": stream.throughput.hex(),
        },
    }


@pytest.mark.parametrize("machine_name", sorted(_MACHINES))
@pytest.mark.parametrize("model", _MODELS)
def test_timelines_match_golden(model, machine_name):
    key = f"{model}@{machine_name}"
    got = _capture(model, machine_name)
    if os.environ.get("REPRO_UPDATE_GOLDENS"):
        golden = json.loads(_FIXTURE.read_text()) if _FIXTURE.exists() else {}
        golden[key] = got
        _FIXTURE.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
        pytest.skip(f"regenerated {key}")
    assert _FIXTURE.exists(), (
        f"missing golden fixture {_FIXTURE}; regenerate with "
        "REPRO_UPDATE_GOLDENS=1"
    )
    golden = json.loads(_FIXTURE.read_text())
    for entry, expected in golden[key].items():
        assert got[entry] == expected, (
            f"{key}/{entry}: the virtual clock moved.  If the change to "
            "the executor semantics is intentional, regenerate with "
            "REPRO_UPDATE_GOLDENS=1 and review the diff."
        )
    assert set(got) == set(golden[key])
