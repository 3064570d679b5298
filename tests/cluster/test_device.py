"""Tests for the simulated-GPU memory allocator."""

import pytest
from hypothesis import given, strategies as st

from repro.cluster.device import (
    TITAN_X,
    V100,
    DeviceOOMError,
    DeviceSpec,
    SimulatedDevice,
    charge_group,
    release_group,
)


def make_device(capacity: int = 1000) -> SimulatedDevice:
    return SimulatedDevice(
        device_id=0,
        spec=DeviceSpec(name="test", memory_bytes=capacity, peak_flops=1e12),
    )


class TestDeviceSpec:
    def test_titan_x_matches_table_ii(self):
        assert TITAN_X.memory_bytes == 12 * 1024**3
        assert TITAN_X.peak_flops == pytest.approx(6.1e12)

    def test_v100_matches_prior_work(self):
        assert V100.memory_bytes == 16 * 1024**3
        assert V100.peak_flops == pytest.approx(125e12)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(memory_bytes=0, peak_flops=1.0),
            dict(memory_bytes=10, peak_flops=0.0),
            dict(memory_bytes=10, peak_flops=1.0, achieved_fraction=0.0),
            dict(memory_bytes=10, peak_flops=1.0, achieved_fraction=1.5),
            dict(memory_bytes=10, peak_flops=1.0, memory_bandwidth=0.0),
        ],
    )
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            DeviceSpec(name="bad", **kwargs)


class TestAllocator:
    def test_alloc_and_free_roundtrip(self):
        dev = make_device(100)
        h = dev.alloc(60, tag="a")
        assert dev.bytes_in_use == 60
        dev.free(h)
        assert dev.bytes_in_use == 0

    def test_oom_raised_at_capacity(self):
        dev = make_device(100)
        dev.alloc(80)
        with pytest.raises(DeviceOOMError) as exc:
            dev.alloc(30, tag="overflow")
        assert exc.value.requested == 30
        assert exc.value.in_use == 80
        assert exc.value.tag == "overflow"

    def test_exact_fit_allowed(self):
        dev = make_device(100)
        dev.alloc(100)
        assert dev.bytes_in_use == dev.spec.memory_bytes

    def test_oom_does_not_charge(self):
        dev = make_device(100)
        dev.alloc(90)
        with pytest.raises(DeviceOOMError):
            dev.alloc(20)
        assert dev.bytes_in_use == 90

    def test_negative_alloc_rejected(self):
        with pytest.raises(ValueError):
            make_device().alloc(-1)

    def test_zero_alloc_allowed(self):
        dev = make_device()
        h = dev.alloc(0)
        dev.free(h)

    def test_double_free_raises(self):
        dev = make_device()
        h = dev.alloc(10)
        dev.free(h)
        with pytest.raises(KeyError):
            dev.free(h)

    def test_peak_tracks_high_water_mark(self):
        dev = make_device(100)
        h1 = dev.alloc(40)
        h2 = dev.alloc(50)
        dev.free(h1)
        dev.free(h2)
        assert dev.peak_bytes == 90
        assert dev.bytes_in_use == 0

    @given(
        sizes=st.lists(st.integers(min_value=0, max_value=50), max_size=20)
    )
    def test_accounting_never_negative(self, sizes):
        dev = make_device(10_000)
        handles = [dev.alloc(s) for s in sizes]
        for h in handles:
            dev.free(h)
        assert dev.bytes_in_use == 0
        assert dev.peak_bytes <= sum(sizes)


class TestChargeGroup:
    """A collective's scratch: one charge on every device of the group."""

    def test_charges_until_release(self):
        devs = [make_device(100), make_device(100)]
        charge_group(devs, 60, "tmp")
        assert [d.bytes_in_use for d in devs] == [60, 60]
        release_group(devs, 60)
        assert [d.bytes_in_use for d in devs] == [0, 0]
        assert [d.peak_bytes for d in devs] == [60, 60]

    def test_oom_charges_no_device(self):
        devs = [make_device(100), make_device(50)]
        with pytest.raises(DeviceOOMError):
            charge_group(devs, 60)
        assert [d.bytes_in_use for d in devs] == [0, 0]
