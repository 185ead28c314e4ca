import tracemalloc

import pytest


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
