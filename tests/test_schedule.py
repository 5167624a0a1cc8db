import numpy as np
import pytest
from hypothesis import given, strategies as st

from sparsekit import Granularity, Phase, PruningSchedule, phase_at, threshold_at
from sparsekit.errors import ConfigError


def sched(s_f=0.6, e_i=30, l_p=20, r=3.0, **kw):
    return PruningSchedule(s_f=s_f, e_i=e_i, l_p=l_p, r=r, granularity=Granularity.CK, **kw)


def test_threshold_era_start_is_zero():
    assert threshold_at(sched(), 30) == 0.0


def test_threshold_era_end_is_target():
    assert threshold_at(sched(), 50) == 0.6


def test_threshold_midpoint_value():
    # 0.6 - 0.6 * 0.5**3
    assert threshold_at(sched(), 40) == pytest.approx(0.525, abs=1e-12)


def test_threshold_before_and_after_era():
    s = sched()
    assert threshold_at(s, 0) == 0.0
    assert threshold_at(s, 29) == 0.0
    assert threshold_at(s, 51) == 0.6
    assert threshold_at(s, 10_000) == 0.6


def test_phase_boundaries():
    s = sched()
    assert phase_at(s, 0) is Phase.DENSE
    assert phase_at(s, 29) is Phase.DENSE
    assert phase_at(s, 30) is Phase.PRUNING
    assert phase_at(s, 49) is Phase.PRUNING
    assert phase_at(s, 50) is Phase.FROZEN


def test_phase_empty_dense_when_era_starts_at_zero():
    s = sched(e_i=0)
    assert phase_at(s, 0) is Phase.PRUNING


schedules = st.builds(
    sched,
    s_f=st.floats(0.0, 1.0),
    e_i=st.integers(0, 200),
    l_p=st.integers(1, 150),
    r=st.floats(1.0, 8.0),
)


@given(schedules)
def test_threshold_monotone_and_bounded(s):
    grid = range(0, s.e_i + s.l_p + 5)
    values = [threshold_at(s, e) for e in grid]
    for a, b in zip(values, values[1:]):
        assert b >= a
    assert all(0.0 <= v <= s.s_f for v in values)
    assert threshold_at(s, s.e_i) == 0.0
    assert threshold_at(s, s.e_i + s.l_p) == s.s_f


@given(schedules)
def test_phases_transition_once_in_order(s):
    phases = [phase_at(s, e) for e in range(0, s.e_i + s.l_p + 3)]
    changes = [(a, b) for a, b in zip(phases, phases[1:]) if a is not b]
    assert changes in (
        [(Phase.DENSE, Phase.PRUNING), (Phase.PRUNING, Phase.FROZEN)],
        [(Phase.PRUNING, Phase.FROZEN)],  # empty dense phase
    )


def test_validation_rejects_bad_fields():
    with pytest.raises(ConfigError):
        sched(s_f=1.5)
    with pytest.raises(ConfigError):
        sched(l_p=0)
    with pytest.raises(ConfigError):
        sched(e_i=-1)
    with pytest.raises(ConfigError):
        sched(r=0.5)
    with pytest.raises(ConfigError):
        sched(window_fraction=1.5)
    with pytest.raises(ConfigError):
        sched(fc_block=5)
    with pytest.raises(ConfigError):
        sched(max_non_zero=-1)


def test_granularity_coerced_from_string():
    s = PruningSchedule(s_f=0.5, e_i=0, l_p=2, granularity="window")
    assert s.granularity is Granularity.WINDOW


def test_random_schedules_hit_endpoints_exactly():
    rng = np.random.default_rng(9)
    for _ in range(200):
        s = sched(
            s_f=float(rng.uniform(0, 1)),
            e_i=int(rng.integers(0, 100)),
            l_p=int(rng.integers(1, 80)),
            r=float(rng.uniform(1, 6)),
        )
        assert threshold_at(s, s.e_i) == 0.0
        assert threshold_at(s, s.e_i + s.l_p) == s.s_f
