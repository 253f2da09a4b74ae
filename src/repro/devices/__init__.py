"""Device substrate: calibrated device cost models, link models, and
N-device machine topologies (default CPU+GPU pair or JSON-loaded meshes)."""

from repro.devices.base import Device
from repro.devices.interconnect import Interconnect, make_pcie3
from repro.devices.machine import (
    Machine,
    default_machine,
    link_key,
    load_mesh,
    make_cpu,
    make_gpu,
    make_mesh,
    scale_device,
)
from repro.devices.noise import (
    CPU_NOISE,
    GPU_NOISE,
    NO_NOISE,
    PCIE_NOISE,
    NoiseModel,
)
from repro.devices.specs import (
    PCIE3_X16,
    TITAN_V,
    XEON_GOLD_6152,
    DeviceSpec,
    InterconnectSpec,
)

__all__ = [
    "CPU_NOISE",
    "Device",
    "DeviceSpec",
    "GPU_NOISE",
    "Interconnect",
    "InterconnectSpec",
    "Machine",
    "NO_NOISE",
    "NoiseModel",
    "PCIE3_X16",
    "PCIE_NOISE",
    "TITAN_V",
    "XEON_GOLD_6152",
    "default_machine",
    "link_key",
    "load_mesh",
    "make_cpu",
    "make_gpu",
    "make_mesh",
    "make_pcie3",
    "scale_device",
]
