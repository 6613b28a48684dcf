"""Speed normalisation on hand-made kernel samples."""

import pytest

from calibrate import KERNEL_REF_S, NEAREST, SpeedProbe


def _probe(samples, busy=()):
    probe = SpeedProbe()
    probe.samples = list(samples)
    probe.busy = list(busy)
    return probe


def test_constant_slowdown_is_divided_out():
    # the kernel runs twice as slow as the reference: 2 s of wall are 1 s at reference speed
    probe = _probe([(t * 0.1, 2 * KERNEL_REF_S) for t in range(40)])
    assert probe.normalise(1.0, 3.0) == pytest.approx(1.0)


def test_kernel_time_inside_the_interval_is_excluded():
    probe = _probe([(t * 0.1, KERNEL_REF_S) for t in range(40)], busy=[(1.5, 1.75)])
    assert probe.normalise(1.0, 2.0) == pytest.approx(0.75)


def test_speed_change_inside_an_interval_is_integrated_piecewise():
    # fast (reference speed) until t=2, then half speed
    samples = [(t * 0.1, KERNEL_REF_S if t * 0.1 < 2.0 else 2 * KERNEL_REF_S)
               for t in range(60)]
    probe = _probe(samples)
    assert probe.normalise(0.5, 1.5) == pytest.approx(1.0)
    assert probe.normalise(3.0, 5.0) == pytest.approx(1.0)
    assert 1.0 < probe.normalise(1.0, 3.0) < 2.0


def test_sparse_samples_use_the_nearest_fixed_count():
    samples = [(float(t), KERNEL_REF_S * (1 + t)) for t in range(20)]
    probe = _probe(samples)
    near = sorted(samples, key=lambda s: abs(s[0] - 10.25))[:NEAREST]
    assert probe.kernel_s(10.2, 10.3) == sorted(k for _, k in near)[NEAREST // 2]
