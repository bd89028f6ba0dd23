"""Macro-window boundaries against the per-iteration addition loop.

``window_boundaries`` builds a window's completion times with
``itertools.accumulate``; ``loop_boundaries`` (in
``tests.reference.kernel``) is the loop it replaced.  Both add ``step``
left to right, so the floats must be bit-identical, for random starts,
steps and counts and for windows that ``macro_interrupt`` truncates.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos import ChaosScenario
from repro.core import kernel as kernel_module
from repro.core.kernel import window_boundaries
from repro.units import DAY
from tests.reference.kernel import loop_boundaries

FLOATS = st.floats(min_value=0.0, max_value=1e9, allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(
    t0=FLOATS,
    step=st.floats(min_value=1e-6, max_value=1e5, allow_nan=False),
    count=st.integers(0, 4096),
)
def test_boundaries_are_the_loop_floats(t0, step, count):
    fast = window_boundaries(t0, step, count)
    slow = loop_boundaries(t0, step, count)
    assert len(fast) == count
    assert fast == slow


def test_truncated_windows_keep_the_loop_prefix(monkeypatch):
    built = []

    def recording(t0, step, count):
        boundaries = window_boundaries(t0, step, count)
        built.append((t0, step, count, boundaries))
        return boundaries

    monkeypatch.setattr(kernel_module, "window_boundaries", recording)
    scenario = ChaosScenario(
        name="truncated-windows",
        policy="gemini",
        failure_model="correlated",
        num_machines=16,
        events_per_day=16.0,
        horizon_days=0.5,
        seeds=(0,),
        num_standby=2,
        degradations=("bandwidth", "straggler"),
        degradation_events_per_day=24.0,
    )
    system = scenario.build_system(0)[0]
    system.run(scenario.horizon_days * DAY)
    truncated = 0
    for t0, step, count, boundaries in built:
        # The list object is the window's own: macro_interrupt cut it
        # in place when a degradation or failure arrived.
        reference = loop_boundaries(t0, step, count)
        assert boundaries == reference[: len(boundaries)]
        truncated += len(boundaries) < count
    assert built and truncated
