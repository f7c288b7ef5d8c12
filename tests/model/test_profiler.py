"""Tests for offline standalone profiling.

The profiler sweeps every level of a device in one array pass; the
referee is the per-level scalar loop it replaced, which calls
:func:`standalone_run` and :func:`standalone_power_w` once per level.
Every profile array must equal the referee's to the byte.
"""

import functools
import math
import operator
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.hardware.device import DeviceKind
from repro.engine.standalone import phase_timings, standalone_power_w, standalone_run
from repro.model.profiler import ProfileTable, extend_table, profile_workload
from repro.perf.cache import EvalCache
from repro.workload.generator import random_program
from repro.workload.phases import Phase
from repro.workload.program import Job, ProgramProfile, make_jobs
from repro.workload.rodinia import rodinia_programs


class TestProfileTable:
    def test_times_match_engine(self, processor, table, rodinia):
        for name in ("streamcluster", "dwt2d"):
            for kind in DeviceKind:
                device = processor.device(kind)
                for f in (device.domain.fmin, device.domain.fmax):
                    want = standalone_run(rodinia[name], device, f).time_s
                    assert table.time_s(name, kind, f) == pytest.approx(want)

    def test_times_decrease_with_frequency(self, processor, table):
        for kind in DeviceKind:
            levels = processor.device(kind).domain.levels
            times = [table.time_s("cfd", kind, f) for f in levels]
            assert all(a >= b for a, b in zip(times, times[1:]))

    def test_demand_consistent_with_time(self, table, rodinia):
        t = table.time_s("srad", DeviceKind.GPU, 1.25)
        d = table.demand_gbps("srad", DeviceKind.GPU, 1.25)
        assert d == pytest.approx(rodinia["srad"].bytes_gb / t)

    def test_power_lookup_positive_and_ordered(self, table):
        own = table.own_power_w("heartwall", DeviceKind.CPU, 3.6)
        chip = table.chip_power_w("heartwall", DeviceKind.CPU, 3.6)
        assert 0 < own < chip

    def test_unknown_job_raises(self, table):
        with pytest.raises(KeyError):
            table.time_s("nope", DeviceKind.CPU, 3.6)
        with pytest.raises(KeyError):
            table.job("nope")

    def test_off_grid_frequency_raises(self, table):
        with pytest.raises(ValueError):
            table.time_s("cfd", DeviceKind.CPU, 2.01)

    def test_job_roundtrip(self, table):
        job = table.job("lud")
        assert job.uid == "lud"

    def test_uids_order(self, table, rodinia_jobs):
        assert table.uids == [j.uid for j in rodinia_jobs]


class TestProfileWorkload:
    def test_duplicate_uids_rejected(self, processor, rodinia):
        job = Job(uid="x", profile=rodinia["lud"])
        with pytest.raises(ValueError):
            profile_workload(processor, [job, job])


def scalar_sweep(profile, kind, processor):
    """The per-level referee: two scalar solo runs per DVFS level."""
    device = processor.device(kind)
    levels = device.domain.levels
    times, demands, own, chip = (np.empty(len(levels)) for _ in range(4))
    for idx, f in enumerate(levels):
        run = standalone_run(profile, device, f)
        times[idx] = run.time_s
        demands[idx] = run.demand_gbps
        own[idx], chip[idx] = standalone_power_w(profile, processor, kind, f)
    return times, demands, own, chip


def assert_matches_referee(processor, jobs, table=None):
    table = table if table is not None else profile_workload(processor, jobs)
    for job in jobs:
        for kind in DeviceKind:
            prof = table._profiles[(job.uid, kind)]
            got = (prof.time_s, prof.demand_gbps, prof.own_power_w, prof.chip_power_w)
            for name, a, b in zip(
                ("time_s", "demand_gbps", "own_power_w", "chip_power_w"),
                got,
                scalar_sweep(job.profile, kind, processor),
            ):
                assert a.dtype == np.float64, name
                assert a.tobytes() == b.tobytes(), (job.uid, kind, name)


def _tied_profile(processor, kind, overlap):
    """One uniform phase whose compute and memory times tie exactly at
    ``kind``'s top level (speed 1.0 there, so compute is the base)."""
    mem_eff = {DeviceKind.CPU: 0.8, DeviceKind.GPU: 0.9}
    bytes_gb = 120.0
    tie = 1.0 * 1.0 * bytes_gb / (
        processor.device(kind).bw_limit(processor.device(kind).domain.fmax)
        * mem_eff[kind]
    )
    return ProgramProfile(
        name=f"tie-{kind.value}",
        compute_base_s={kind: tie, kind.other: 25.0},
        bytes_gb=bytes_gb,
        mem_eff=mem_eff,
        overlap=overlap,
        sensitivity={DeviceKind.CPU: 1.0, DeviceKind.GPU: 1.0},
    )


class TestArrayPass:
    """The one-pass sweep equals the per-level scalar runs bit for bit."""

    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        seed=st.integers(0, 2**31 - 1),
        overlap=st.sampled_from([None, 0.0, 1.0]),
        idle_phases=st.lists(st.booleans(), max_size=8),
    )
    def test_generator_profiles_match_the_scalar_loop(
        self, processor, seed, overlap, idle_phases
    ):
        profile = random_program(seed, max_phases=8)
        if overlap is not None:
            profile = replace(profile, overlap=overlap)
        n = len(profile.phases)
        idle = (idle_phases + [False] * n)[:n]
        if any(idle) and not all(idle):
            # Zero-intensity phases: compute only, no traffic.
            phases = tuple(
                Phase(ph.weight, 0.0) if off else ph
                for ph, off in zip(profile.phases, idle)
            )
            profile = replace(profile, phases=phases)
        assert 1 <= len(profile.phases) <= 8
        assert_matches_referee(processor, [Job(uid="j", profile=profile)])

    def test_rodinia_set_matches_the_scalar_loop(self, processor, table, rodinia_jobs):
        assert_matches_referee(processor, rodinia_jobs, table)
        scaled = make_jobs(rodinia_programs(), instances=2, instance_scales=(0.5, 1.7))
        assert_matches_referee(processor, scaled)

    @pytest.mark.parametrize("overlap", [0.0, 0.4, 1.0])
    @pytest.mark.parametrize("kind", list(DeviceKind))
    def test_compute_equals_memory_ties(self, processor, kind, overlap):
        profile = _tied_profile(processor, kind, overlap)
        device = processor.device(kind)
        (top,) = phase_timings(profile, device, device.domain.fmax)
        assert top.compute_s == top.mem_s
        assert_matches_referee(processor, [Job(uid="tie", profile=profile)])

    def test_extend_table_matches_the_scalar_loop(self, processor):
        jobs = [Job(uid=f"p{k}", profile=random_program(k)) for k in range(4)]
        empty = ProfileTable(processor=processor, jobs=(), _profiles={})
        for cache in (None, EvalCache()):
            assert_matches_referee(
                processor, jobs, extend_table(empty, jobs, cache=cache)
            )

    def test_phase_sums_use_the_interpreters_sum(self, processor):
        # One dominant phase and five about 1e-16 of it: adding left to
        # right (Python 3.11's float sum) drops every small phase, while a
        # compensated sum (3.12's) keeps them, so the two disagree at
        # every level.  The array pass must give what standalone_run
        # gives on the running interpreter.
        profile = ProgramProfile(
            name="tiny-tail",
            compute_base_s={DeviceKind.CPU: 30.0, DeviceKind.GPU: 20.0},
            bytes_gb=100.0,
            mem_eff={DeviceKind.CPU: 0.8, DeviceKind.GPU: 0.9},
            overlap=0.5,
            sensitivity={DeviceKind.CPU: 1.0, DeviceKind.GPU: 1.0},
            phases=(Phase(1.0, 1.0),) + (Phase(1e-16, 1.0),) * 5,
        )
        table = profile_workload(processor, [Job(uid="t", profile=profile)])
        for kind in DeviceKind:
            device = processor.device(kind)
            for f in device.domain.levels:
                durations = [p.duration_s for p in phase_timings(profile, device, f)]
                assert functools.reduce(operator.add, durations) != math.fsum(durations)
                assert table.time_s("t", kind, f) == standalone_run(profile, device, f).time_s

    def test_range_checks_raise_the_scalar_error(self, processor):
        # A stall fraction above 1 (past the model's own validation) drives
        # the utilization out of range: both sweeps raise the same error.
        cpu = processor.power.cpu
        broken = replace(cpu)
        object.__setattr__(broken, "stall_power_fraction", 1.5)
        power = replace(processor.power)
        object.__setattr__(power, "cpu", broken)
        bad = replace(processor)
        object.__setattr__(bad, "power", power)
        profile = rodinia_programs()[0]
        job = Job(uid=profile.name, profile=profile)
        with pytest.raises(ValueError) as want:
            scalar_sweep(job.profile, DeviceKind.CPU, bad)
        with pytest.raises(ValueError) as got:
            profile_workload(bad, [job])
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith("util must be in [0.0, 1.0]")


class TestFingerprint:
    def test_no_cache_takes_no_hash(self, processor, rodinia_jobs, monkeypatch):
        import repro.model.profiler as profiler

        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)

        def no_hash(*objs):
            raise AssertionError("fingerprint called without a cache")

        monkeypatch.setattr(profiler, "fingerprint", no_hash)
        profile_workload(processor, rodinia_jobs)

    def test_env_disk_cache_still_serves(self, processor, rodinia_jobs, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        first = profile_workload(processor, rodinia_jobs)
        assert len(list(tmp_path.glob("*.pkl"))) == 1
        again = profile_workload(processor, rodinia_jobs)
        assert again is not first
        assert again.time_s("cfd", DeviceKind.GPU, 1.25) == first.time_s(
            "cfd", DeviceKind.GPU, 1.25
        )

    def test_memory_cache_hashes_and_memoizes(self, processor, rodinia_jobs, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        cache = EvalCache()
        first = profile_workload(processor, rodinia_jobs, cache=cache)
        assert profile_workload(processor, rodinia_jobs, cache=cache) is first
