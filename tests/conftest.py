import tracemalloc

import numpy as np
import pytest

from gdscope import CostFunction


class CountingCost(CostFunction):
    """Delegates to ``inner`` and counts every evaluation by entry point.

    ``fused_at`` keeps the points of the ``value_and_gradient`` calls.
    """

    def __init__(self, inner):
        self.inner, self.kind, self.dimension = inner, inner.kind, inner.dimension
        self.calls = dict.fromkeys(
            ("value", "gradient", "value_and_gradient", "stochastic_gradient"), 0)
        self.fused_at = []

    @property
    def num_examples(self):
        return self.inner.num_examples

    def value(self, theta):
        self.calls["value"] += 1
        return self.inner.value(theta)

    def gradient(self, theta):
        self.calls["gradient"] += 1
        return self.inner.gradient(theta)

    def value_and_gradient(self, theta):
        self.calls["value_and_gradient"] += 1
        self.fused_at.append(np.array(theta))
        return self.inner.value_and_gradient(theta)

    def stochastic_gradient(self, theta, batch):
        self.calls["stochastic_gradient"] += 1
        return self.inner.stochastic_gradient(theta, batch)


def _traced_peak(fn):
    """The peak bytes that tracemalloc saw allocated, above what was already held,
    while ``fn()`` ran. numpy reports its array buffers to tracemalloc."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - held
    finally:
        if started:
            tracemalloc.stop()


@pytest.fixture
def traced_peak():
    """``traced_peak(fn)``: the peak traced memory of one call, in bytes."""
    return _traced_peak
