"""Tests for repro.workload.program."""

import pytest

from repro.hardware.device import DeviceKind
from repro.workload.phases import Phase
from repro.workload.program import Job, ProgramProfile, make_jobs


def _profile(name="p", **overrides):
    kwargs = dict(
        name=name,
        compute_base_s={DeviceKind.CPU: 10.0, DeviceKind.GPU: 5.0},
        bytes_gb=50.0,
        mem_eff={DeviceKind.CPU: 0.8, DeviceKind.GPU: 0.9},
        overlap=0.5,
        sensitivity={DeviceKind.CPU: 1.0, DeviceKind.GPU: 1.0},
    )
    kwargs.update(overrides)
    return ProgramProfile(**kwargs)


class TestProgramProfile:
    def test_valid_profile(self):
        p = _profile()
        assert p.name == "p"
        assert sum(ph.weight for ph in p.phases) == pytest.approx(1.0)

    def test_missing_device_entry_rejected(self):
        with pytest.raises(ValueError, match="compute_base_s"):
            _profile(compute_base_s={DeviceKind.CPU: 10.0})

    def test_bad_mem_eff_rejected(self):
        with pytest.raises(ValueError):
            _profile(mem_eff={DeviceKind.CPU: 0.0, DeviceKind.GPU: 0.9})
        with pytest.raises(ValueError):
            _profile(mem_eff={DeviceKind.CPU: 1.5, DeviceKind.GPU: 0.9})

    def test_bad_overlap_rejected(self):
        with pytest.raises(ValueError):
            _profile(overlap=1.1)

    def test_phases_are_normalized_on_construction(self):
        p = _profile(phases=(Phase(2.0, 3.0), Phase(2.0, 1.0)))
        assert sum(ph.weight for ph in p.phases) == pytest.approx(1.0)
        assert sum(ph.weight * ph.intensity for ph in p.phases) == pytest.approx(1.0)

    def test_workless_program_rejected(self):
        with pytest.raises(ValueError, match="no work"):
            _profile(
                compute_base_s={DeviceKind.CPU: 0.0, DeviceKind.GPU: 0.0},
                bytes_gb=0.0,
            )

    @pytest.mark.parametrize(
        "idle, busy", [(DeviceKind.CPU, DeviceKind.GPU), (DeviceKind.GPU, DeviceKind.CPU)]
    )
    def test_device_without_work_rejected(self, idle, busy):
        # Zero compute and zero traffic: that device would run an empty
        # program, which neither the model nor the engine can time.
        with pytest.raises(ValueError, match=f"idle-{idle}: .*no work on {idle}"):
            _profile(
                name=f"idle-{idle}",
                compute_base_s={idle: 0.0, busy: 1.0},
                bytes_gb=0.0,
            )

    def test_memory_only_device_accepted(self):
        # Zero compute is fine while there is traffic to move.
        p = _profile(compute_base_s={DeviceKind.CPU: 0.0, DeviceKind.GPU: 1.0})
        assert p.compute_base_s[DeviceKind.CPU] == 0.0
        assert p.bytes_gb > 0.0

    def test_scaled_multiplies_all_work(self):
        p = _profile()
        s = p.scaled(2.0)
        assert s.bytes_gb == pytest.approx(100.0)
        assert s.compute_base_s[DeviceKind.CPU] == pytest.approx(20.0)
        assert s.mem_eff == p.mem_eff  # intensity characteristics unchanged

    def test_scaled_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            _profile().scaled(0.0)

    def test_scaled_can_rename(self):
        assert _profile().scaled(1.5, name="big").name == "big"


class TestMakeJobs:
    def test_single_instance_uses_program_names(self):
        jobs = make_jobs([_profile("a"), _profile("b")])
        assert [j.uid for j in jobs] == ["a", "b"]

    def test_multi_instance_naming(self):
        jobs = make_jobs([_profile("a")], instances=2)
        assert [j.uid for j in jobs] == ["a#0", "a#1"]
        assert all(j.program_name == "a" for j in jobs)

    def test_instance_scales_applied(self):
        jobs = make_jobs([_profile("a")], instances=2, instance_scales=(1.0, 0.5))
        assert jobs[1].profile.bytes_gb == pytest.approx(
            jobs[0].profile.bytes_gb * 0.5
        )

    def test_scale_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            make_jobs([_profile("a")], instances=2, instance_scales=(1.0,))

    def test_zero_instances_rejected(self):
        with pytest.raises(ValueError):
            make_jobs([_profile("a")], instances=0)


class TestJob:
    def test_name_is_uid(self):
        job = Job(uid="a#1", profile=_profile("a"))
        assert job.name == "a#1"
        assert str(job) == "a#1"
