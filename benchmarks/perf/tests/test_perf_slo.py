"""A refused or late request counts against ``slo_share``."""

import numpy as np
import pytest

from harness.workloads import ERRORED, OK, REFUSED, SLO_LIMIT_S, WRONG, OpenResult


def _result(status, latency_s, step=None):
    n = len(status)
    status = np.asarray(status, dtype=np.int8)
    return OpenResult(
        step_s=1.0,
        step=np.zeros(n, dtype=np.int64) if step is None else np.asarray(step),
        due=np.linspace(0.0, 0.9, n), late=np.zeros(n),
        latency=np.where(status == OK, latency_s, np.nan),
        done=np.linspace(0.0, 0.9, n) + np.asarray(latency_s), status=status,
        submit_s=np.zeros(n), traced=np.zeros(n, bool), batch_size=np.ones(n),
        stacked=np.zeros(n, bool), queue_wait_s=np.zeros(n), exec_wall_s=np.zeros(n),
    )


def test_all_on_time_is_one():
    res = _result([OK] * 4, [1e-3] * 4)
    assert res.slo_share([0]) == 1.0
    assert res.failed_share(0) == 0.0


def test_refused_late_errored_and_wrong_all_count_against():
    status = [OK, OK, REFUSED, ERRORED, WRONG, OK, OK, OK, OK, OK]
    latency = [1e-3, SLO_LIMIT_S * 2] + [1e-3] * 8  # second one is late
    res = _result(status, latency)
    assert res.slo_share([0]) == pytest.approx(6 / 10)
    assert res.failed_share(0) == pytest.approx(3 / 10)


def test_share_is_over_requests_sent_in_the_named_steps_only():
    res = _result([OK, REFUSED, OK, REFUSED], [1e-3] * 4, step=[0, 0, 1, 1])
    assert res.slo_share([0]) == pytest.approx(0.5)
    assert res.slo_share([0, 1]) == pytest.approx(0.5)
    res = _result([OK, OK, REFUSED, REFUSED], [1e-3] * 4, step=[0, 0, 1, 1])
    assert res.slo_share([0]) == 1.0


def test_backlog_growth_is_seen_from_due_and_done_times():
    n = 200
    res = _result([OK] * n, [1e-3] * n)
    assert not res.backlog_grows(0)
    res.done = res.due + np.linspace(0.0, 0.5, n)  # completions fall ever further behind
    assert res.backlog_grows(0)
