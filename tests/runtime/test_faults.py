"""Tests for the deterministic fault-injection layer."""

import numpy as np
import pytest

from repro.errors import (
    DeviceLostError,
    ExecutionError,
    TransferError,
    TransientKernelError,
)
from repro.runtime.faults import (
    DeviceLoss,
    FaultInjector,
    FaultPlan,
    KernelFault,
    StallFault,
    TransferFault,
)


class TestFaultPlanValidation:
    def test_empty_plan(self):
        plan = FaultPlan()
        assert plan.is_empty
        assert not FaultPlan(kernel_faults=(KernelFault("t"),)).is_empty

    def test_lists_coerced_to_tuples(self):
        plan = FaultPlan(kernel_faults=[KernelFault("t")])
        assert isinstance(plan.kernel_faults, tuple)

    def test_bad_kernel_fault_attempts(self):
        with pytest.raises(ExecutionError, match="fail_attempts"):
            KernelFault("t", fail_attempts=0)

    def test_bad_stall(self):
        with pytest.raises(ExecutionError, match="delay_s"):
            StallFault("t", delay_s=-1.0)

    def test_bad_transfer_mode(self):
        with pytest.raises(ExecutionError, match="mode"):
            TransferFault("t", "gpu", mode="explode")

    def test_bad_transfer_device(self):
        # Mesh device names are open-ended; only junk values are rejected.
        with pytest.raises(ExecutionError, match="device"):
            TransferFault("t", "")

    def test_mesh_device_names_accepted(self):
        TransferFault("t", "gpu1")
        DeviceLoss("gpu1", at_task="t")

    def test_device_loss_needs_trigger(self):
        with pytest.raises(TypeError, match="at_task"):
            DeviceLoss("gpu")
        with pytest.raises(ExecutionError, match="device"):
            DeviceLoss("", at_task="t")


class TestInjectorAttemptCounting:
    def test_kernel_fault_fails_first_k_attempts(self):
        inj = FaultInjector(
            FaultPlan(kernel_faults=(KernelFault("t", fail_attempts=2),))
        )
        for _ in range(2):
            with pytest.raises(TransientKernelError):
                inj.on_task_start("t", "cpu")
        inj.on_task_start("t", "cpu")  # third attempt succeeds
        assert inj.task_attempts("t") == 3

    def test_unrelated_tasks_unaffected(self):
        inj = FaultInjector(
            FaultPlan(kernel_faults=(KernelFault("t", fail_attempts=2),))
        )
        inj.on_task_start("other", "cpu")

    def test_reset_revives_counters_and_devices(self):
        inj = FaultInjector(
            FaultPlan(
                kernel_faults=(KernelFault("t"),),
                device_losses=(DeviceLoss("gpu", at_task="t"),),
            )
        )
        with pytest.raises(DeviceLostError):
            # at_task fires first, and "t" sits on the dying device.
            inj.on_task_start("t", "gpu")
        with pytest.raises(DeviceLostError):
            inj.on_task_start("other", "gpu")
        inj.reset()
        inj.on_task_start("other", "gpu")  # revived: no DeviceLostError
        assert inj.task_attempts("t") == 0


class TestDeviceLoss:
    def test_loss_at_task_kills_device_for_later_tasks(self):
        inj = FaultInjector(
            FaultPlan(device_losses=(DeviceLoss("gpu", at_task="trigger"),))
        )
        inj.on_task_start("before", "gpu")  # fine: device still alive
        inj.on_task_start("trigger", "cpu")  # trigger lives on the CPU
        with pytest.raises(DeviceLostError) as excinfo:
            inj.on_task_start("after", "gpu")
        assert excinfo.value.device == "gpu"
        inj.on_task_start("cpu_task", "cpu")  # survivor keeps working

    def test_lost_device_refuses_tasks_until_reset(self):
        inj = FaultInjector(
            FaultPlan(device_losses=(DeviceLoss("cpu", at_task="trigger"),))
        )
        with pytest.raises(DeviceLostError):
            inj.on_task_start("trigger", "cpu")
        with pytest.raises(DeviceLostError) as excinfo:
            inj.on_task_start("t", "cpu")
        assert excinfo.value.device == "cpu"
        inj.reset()
        inj.on_task_start("t", "cpu")


class TestTransferFaults:
    def test_fail_mode_raises_then_recovers(self):
        inj = FaultInjector(
            FaultPlan(
                transfer_faults=(
                    TransferFault("prod", "gpu", mode="fail", fail_attempts=1),
                )
            )
        )
        arr = np.ones(4)
        with pytest.raises(TransferError):
            inj.on_transfer("prod", "gpu", arr)
        out = inj.on_transfer("prod", "gpu", arr)
        np.testing.assert_array_equal(out, arr)

    def test_corrupt_mode_poisons_floats_with_nan(self):
        inj = FaultInjector(
            FaultPlan(
                transfer_faults=(
                    TransferFault("prod", "cpu", mode="corrupt"),
                )
            )
        )
        arr = np.ones(4, dtype=np.float32)
        out = inj.on_transfer("prod", "cpu", arr)
        assert np.isnan(out).all()
        np.testing.assert_array_equal(arr, np.ones(4, dtype=np.float32))
        # Second fetch is clean.
        out2 = inj.on_transfer("prod", "cpu", arr)
        np.testing.assert_array_equal(out2, arr)

    def test_corrupt_mode_saturates_ints(self):
        inj = FaultInjector(
            FaultPlan(
                transfer_faults=(TransferFault("prod", "cpu", mode="corrupt"),)
            )
        )
        arr = np.ones(4, dtype=np.int32)
        out = inj.on_transfer("prod", "cpu", arr)
        assert (out == np.iinfo(np.int32).max).all()

    def test_other_destination_untouched(self):
        inj = FaultInjector(
            FaultPlan(transfer_faults=(TransferFault("prod", "gpu"),))
        )
        arr = np.ones(4)
        np.testing.assert_array_equal(inj.on_transfer("prod", "cpu", arr), arr)
