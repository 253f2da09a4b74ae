"""Tests for the serving test subjects."""

import pytest

from repro.core import DuetEngine
from repro.errors import ExecutionError
from repro.serving import analyze_stack_safety
from repro.testing import elementwise_chain


class TestElementwiseChain:
    def test_is_stack_safe(self):
        opt = DuetEngine().optimize(elementwise_chain(batch=2, width=8, depth=2))
        assert analyze_stack_safety(opt.plan).stackable

    def test_depth_validation(self):
        with pytest.raises(ExecutionError):
            elementwise_chain(depth=0)
