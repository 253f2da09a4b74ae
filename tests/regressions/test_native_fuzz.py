"""Seeded conformance pins for the native backend.

The first native fuzz sweep (``python -m repro fuzz --backend native
--seed 0 --count 50``) came back clean, so there is no minimized failure
to enshrine; instead these pins replay a spread of seed-0 cases with
``backend="native"`` so the whole oracle cross-check — C renderer,
signature cache, ctypes dispatch, two-class ULP policy — stays green on
generated graphs, not just the curated zoo.  The oracle pins the tile
for ``backend="native"``, so every group the renderer accepts runs
rendered C here whether or not it would win its contest (its
``native:selected`` arm covers the contested module).  Case 26 is included
deliberately: it exposed the output-renaming compiler bug
(see ``test_fuzzer_finds.py``), so it exercises declared-output plumbing
through the native path too.

When a machine has no C compiler the native arms self-skip inside the
oracle and these pins degrade to the NumPy cross-check — still a valid
(if weaker) assertion, and the skip is visible in the report summary.
"""

import pytest

from repro.cli import build_parser
from repro.devices import default_machine
from repro.testing.generators import case_rng, generate_graph
from repro.testing.oracle import run_differential


@pytest.fixture(scope="module")
def machine():
    return default_machine(noisy=False)


@pytest.mark.parametrize("index", [0, 7, 26, 33, 42])
def test_seed0_cases_conform_on_native(machine, index):
    graph = generate_graph(case_rng(0, index), name=f"fuzz_s0_i{index}")
    report = run_differential(graph, machine=machine, backend="native")
    assert report.ok, report.summary()


def test_fuzz_cli_accepts_native_backend():
    args = build_parser().parse_args(
        ["fuzz", "--backend", "native", "--seed", "0", "--count", "1"]
    )
    assert args.backend == "native"


def test_fuzz_cli_defaults_to_numpy_backend():
    args = build_parser().parse_args(["fuzz", "--seed", "0", "--count", "1"])
    assert args.backend == "numpy"
