"""Tests for repro.faults: injection, recovery, degradation accounting.

Three headline scenarios anchor the suite, mirroring the robustness
story the fault subsystem exists to tell:

* a processing element dies mid-run and the hosted kernels migrate to a
  mapper-reserved spare, preserving both output values and the
  real-time verdict;
* a transient fault exhausts its retries under a shedding policy and
  the run reports *frames shed* instead of silently carrying wrong
  pixels downstream (the ``shed=False`` baseline shows exactly those
  wrong pixels);
* an upstream shed starves a multi-input join, and frame-level
  resynchronization drains the orphaned data so later frames come out
  bit-identical to the fault-free run.
"""

import json
import pickle

import numpy as np
import pytest

from repro.apps import build_image_pipeline
from repro.errors import FaultSpecError, MappingError, SimulationError
from repro.explore import Job, SweepSpec, execute_job
from repro.faults import FaultSpec, FaultStats, load_fault_spec
from repro.sim import SimulationOptions, simulate
from repro.transform import CompileOptions, compile_application

from helpers import SMALL_PROC

RATE = 100.0
FRAMES = 4


def compiled_pipeline(**opts):
    app = build_image_pipeline(24, 16, RATE)
    return compile_application(
        app, SMALL_PROC, CompileOptions(mapping="greedy", **opts)
    )


def run(compiled, spec=None, frames=FRAMES):
    if isinstance(spec, dict):
        spec = FaultSpec.from_dict(spec)
    return simulate(compiled, SimulationOptions(frames=frames, faults=spec))


# ---------------------------------------------------------------------------
# Spec construction and validation


class TestFaultSpecValidation:
    def test_bad_probability_names_field(self):
        with pytest.raises(FaultSpecError, match="transient.probability"):
            FaultSpec.from_dict({"transient": {"probability": 1.5}})

    def test_bad_channel_probability_names_field(self):
        with pytest.raises(FaultSpecError, match="channel.drop_probability"):
            FaultSpec.from_dict({"channel": {"drop_probability": -0.1}})

    def test_negative_backoff_names_field(self):
        with pytest.raises(FaultSpecError, match="recovery.backoff_cycles"):
            FaultSpec.from_dict({"recovery": {"backoff_cycles": -1}})

    def test_unknown_key_rejected(self):
        with pytest.raises(FaultSpecError, match="unknown"):
            FaultSpec.from_dict({"transients": {}})

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(FaultSpecError, match="unknown recovery keys"):
            FaultSpec.from_dict({"recovery": {"retries": 3}})

    def test_malformed_schedule_entry(self):
        with pytest.raises(FaultSpecError, match="transient.schedule"):
            FaultSpec.from_dict({"transient": {"schedule": [["Merge"]]}})

    def test_duplicate_pe_failure_rejected(self):
        with pytest.raises(FaultSpecError, match="twice"):
            FaultSpec.from_dict({"pe_failures": [
                {"processor": 1, "time_s": 0.1},
                {"processor": 1, "time_s": 0.2},
            ]})

    def test_duplicate_slow_pe_rejected(self):
        with pytest.raises(FaultSpecError, match="twice"):
            FaultSpec.from_dict({"slow_pes": [[0, 2.0], [0, 3.0]]})

    def test_nonpositive_slow_multiplier_rejected(self):
        with pytest.raises(FaultSpecError,
                           match=r"slow_pes\[0\]\[1\] must be positive, "
                                 r"got 0\.0"):
            FaultSpec.from_dict({"slow_pes": [[0, 0.0]]})

    def test_round_trip(self):
        spec = FaultSpec.from_dict({
            "seed": 7,
            "transient": {"probability": 0.01, "kernels": ["Merge"],
                          "schedule": [["Conv5x5", 3]]},
            "pe_failures": [{"processor": 2, "time_s": 0.02}],
            "slow_pes": [[1, 2.5]],
            "channel": {"drop_probability": 0.001},
            "recovery": {"max_retries": 2, "backoff_cycles": 16,
                         "migrate": True, "migration_cycles": 100,
                         "shed": True},
        })
        assert FaultSpec.from_dict(spec.to_dict()) == spec
        assert FaultSpec.from_json(spec.canonical_json()) == spec

    def test_canonical_json_ignores_key_order(self):
        a = FaultSpec.from_dict(
            {"recovery": {"max_retries": 1, "shed": True}, "seed": 3}
        )
        b = FaultSpec.from_dict(
            {"seed": 3, "recovery": {"shed": True, "max_retries": 1}}
        )
        assert a.canonical_json() == b.canonical_json()

    def test_active_flag(self):
        assert not FaultSpec().active()
        assert not FaultSpec.from_dict({"slow_pes": [[0, 1.0]]}).active()
        assert not FaultSpec.from_dict(
            {"seed": 9, "recovery": {"max_retries": 5}}
        ).active()
        assert FaultSpec.from_dict(
            {"transient": {"probability": 0.1}}
        ).active()
        assert FaultSpec.from_dict(
            {"transient": {"schedule": [["Merge", 0]]}}
        ).active()
        assert FaultSpec.from_dict({"slow_pes": [[0, 2.0]]}).active()

    def test_load_names_path(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"transient": {"probability": 2}}')
        with pytest.raises(FaultSpecError, match="bad.json"):
            load_fault_spec(str(p))

    def test_fault_spec_error_is_simulation_error(self):
        assert issubclass(FaultSpecError, SimulationError)


class TestSimulationOptionsValidation:
    def test_negative_frames(self):
        with pytest.raises(SimulationError, match="frames"):
            SimulationOptions(frames=-1)

    def test_zero_input_capacity(self):
        with pytest.raises(SimulationError, match="input_channel_capacity"):
            SimulationOptions(input_channel_capacity=0)

    def test_zero_channel_capacity(self):
        with pytest.raises(SimulationError, match="channel_capacity"):
            SimulationOptions(channel_capacity=0)

    def test_zero_max_events(self):
        with pytest.raises(SimulationError, match="max_events"):
            SimulationOptions(max_events=0)

    def test_negative_tolerance(self):
        with pytest.raises(SimulationError, match="throughput_tolerance"):
            SimulationOptions(throughput_tolerance=-0.5)

    def test_faults_mapping_coerced(self):
        opts = SimulationOptions(faults={"transient": {"probability": 0.1}})
        assert isinstance(opts.faults, FaultSpec)
        assert opts.faults.transient.probability == 0.1

    def test_bad_faults_mapping_rejected(self):
        with pytest.raises(SimulationError, match="probability"):
            SimulationOptions(faults={"transient": {"probability": 7}})


# ---------------------------------------------------------------------------
# Zero-fault path


class TestZeroFaultPath:
    def test_no_spec_has_no_faults_section(self):
        res = run(compiled_pipeline())
        assert "faults" not in res.as_dict()

    def test_inactive_spec_is_observationally_absent(self):
        compiled = compiled_pipeline()
        bare = run(compiled)
        inert = run(compiled, FaultSpec(seed=123, slow_pes=((0, 1.0),)))
        assert "faults" not in inert.as_dict()
        assert inert.as_dict() == bare.as_dict()
        assert inert.events_processed == bare.events_processed


# ---------------------------------------------------------------------------
# Transient faults and retry


class TestTransientRetry:
    SPEC = {
        "seed": 5,
        "transient": {"probability": 0.01},
        "recovery": {"max_retries": 4, "backoff_cycles": 32},
    }

    def test_retries_recover_all_and_preserve_values(self):
        compiled = compiled_pipeline()
        base = run(compiled)
        res = run(compiled, self.SPEC)
        fs = res.fault_stats
        assert fs.injected > 0
        assert fs.unrecovered == 0
        assert fs.recovered > 0
        assert fs.retries >= fs.recovered
        assert fs.recovery_latency_s > 0
        for a, b in zip(res.outputs["result"], base.outputs["result"]):
            np.testing.assert_array_equal(a, b)
        assert len(res.outputs["result"]) == FRAMES

    def test_retries_cost_simulated_time(self):
        """A retried fault on the final Merge firing (the critical path)
        delays the last output, so the makespan strictly grows."""
        compiled = compiled_pipeline()
        base = run(compiled)
        spec = {
            "transient": {"schedule": [["Merge", 7]]},
            "recovery": {"max_retries": 1, "backoff_cycles": 64},
        }
        res = run(compiled, spec)
        assert res.fault_stats.recovered == 1
        assert res.makespan_s > base.makespan_s

    def test_result_dict_carries_fault_section(self):
        res = run(compiled_pipeline(), self.SPEC)
        d = res.as_dict()["faults"]
        assert d == res.fault_stats.as_dict()
        assert d["injected"] == res.fault_stats.injected

    def test_repeated_schedule_entry_faults_consecutive_attempts(self):
        spec = {
            "transient": {"schedule": [["Merge", 3], ["Merge", 3]]},
            "recovery": {"max_retries": 3},
        }
        res = run(compiled_pipeline(), spec)
        fs = res.fault_stats
        assert fs.injected == 2      # original attempt + first retry
        assert fs.retries == 2       # two re-attempts before success
        assert fs.recovered == 1     # one logical fault cleared
        assert fs.unrecovered == 0

    def test_describe_mentions_counts(self):
        res = run(compiled_pipeline(), self.SPEC)
        text = res.fault_stats.describe()
        assert "injected" in text and "recovered" in text


class TestSheddingAndCorruption:
    """The Merge kernel fires 8 times over 4 frames; odd firing indices
    emit completed frames 0..3.  Faulting firing 3 kills frame 1."""

    SHED = {
        "transient": {"schedule": [["Merge", 3]]},
        "recovery": {"shed": True},
    }
    CORRUPT = {"transient": {"schedule": [["Merge", 3]]}}

    def test_shed_drops_the_frame_cleanly(self):
        compiled = compiled_pipeline()
        base = run(compiled)
        res = run(compiled, self.SHED)
        out, ref = res.outputs["result"], base.outputs["result"]
        assert len(out) == FRAMES - 1
        assert res.fault_stats.data_shed == 1
        assert res.fault_stats.unrecovered == 1
        # Every frame that does arrive is bit-identical to the
        # fault-free run; frame 1 is simply missing.
        for a, b in zip(out, [ref[0], ref[2], ref[3]]):
            np.testing.assert_array_equal(a, b)

    def test_shed_verdict_reports_frames_shed(self):
        res = run(compiled_pipeline(), self.SHED)
        v = res.verdict("result", rate_hz=RATE, chunks_per_frame=1,
                        frames=FRAMES, allow_shedding=True)
        assert v.meets
        assert v.frames_shed == 1
        assert "shed" in v.describe()

    def test_shedding_not_allowed_fails_verdict(self):
        res = run(compiled_pipeline(), self.SHED)
        v = res.verdict("result", rate_hz=RATE, chunks_per_frame=1,
                        frames=FRAMES)
        assert not v.meets

    def test_corruption_baseline_emits_wrong_pixels(self):
        compiled = compiled_pipeline()
        base = run(compiled)
        res = run(compiled, self.CORRUPT)
        out, ref = res.outputs["result"], base.outputs["result"]
        assert len(out) == FRAMES          # frame count intact...
        assert res.fault_stats.corrupted == 1
        assert res.fault_stats.data_shed == 0
        assert not np.array_equal(out[1], ref[1])  # ...but pixels wrong
        np.testing.assert_array_equal(out[0], ref[0])

    def test_upstream_shed_resynchronizes_the_join(self):
        """Shedding a Conv5x5 emission starves the Subtract join; the
        frame-level resync drains the orphaned window so frames after
        the degraded one come out bit-identical."""
        spec = {
            "transient": {"schedule": [["Conv5x5", 10]]},
            "recovery": {"shed": True},
        }
        compiled = compiled_pipeline()
        base = run(compiled)
        res = run(compiled, spec)
        out, ref = res.outputs["result"], base.outputs["result"]
        assert len(out) == FRAMES
        assert res.fault_stats.data_shed >= 1
        assert not np.array_equal(out[0], ref[0])   # degraded frame
        for a, b in zip(out[1:], ref[1:]):          # full recovery
            np.testing.assert_array_equal(a, b)
        v = res.verdict("result", rate_hz=RATE, chunks_per_frame=1,
                        frames=FRAMES, allow_shedding=True)
        assert v.meets


# ---------------------------------------------------------------------------
# PE death and migration to spares


class TestPEDeathAndMigration:
    def test_mapper_reserves_spares(self):
        compiled = compiled_pipeline(spare_processors=2)
        m = compiled.mapping
        used = set(m.assignment.values())
        assert len(m.spares) == 2
        assert used.isdisjoint(m.spares)
        assert "spare" in m.describe()

    def test_spares_excluded_from_processor_count(self):
        plain = compiled_pipeline()
        spared = compiled_pipeline(spare_processors=1)
        assert spared.processor_count == plain.processor_count

    def test_negative_spares_rejected(self):
        with pytest.raises(MappingError):
            compiled_pipeline(spare_processors=-1)

    def test_migration_preserves_outputs_and_deadline(self):
        compiled = compiled_pipeline(spare_processors=1)
        base = run(compiled)
        victims = sorted(set(compiled.mapping.assignment.values()))
        victim = victims[len(victims) // 2]
        spec = {
            "pe_failures": [{"processor": victim,
                             "time_s": base.makespan_s / 2}],
            "recovery": {"migrate": True, "migration_cycles": 100},
        }
        res = run(compiled, spec)
        fs = res.fault_stats
        assert fs.pe_deaths == 1
        assert fs.migrations == 1
        assert fs.unrecovered == 0
        assert fs.recovery_latency_s > 0
        out, ref = res.outputs["result"], base.outputs["result"]
        assert len(out) == FRAMES
        for a, b in zip(out, ref):
            np.testing.assert_array_equal(a, b)
        v = res.verdict("result", rate_hz=RATE, chunks_per_frame=1,
                        frames=FRAMES)
        assert v.meets

    def test_death_without_spare_is_unrecovered(self):
        compiled = compiled_pipeline()
        base = run(compiled)
        victims = sorted(set(compiled.mapping.assignment.values()))
        spec = {
            "pe_failures": [{"processor": victims[0],
                             "time_s": base.makespan_s / 4}],
            "recovery": {"migrate": True},
        }
        res = run(compiled, spec)
        assert res.fault_stats.pe_deaths == 1
        assert res.fault_stats.migrations == 0
        assert res.fault_stats.unrecovered >= 1
        assert len(res.outputs["result"]) < FRAMES

    def test_death_after_makespan_changes_nothing(self):
        compiled = compiled_pipeline(spare_processors=1)
        base = run(compiled)
        spec = {
            "pe_failures": [{"processor": 0,
                             "time_s": base.makespan_s * 2}],
            "recovery": {"migrate": True},
        }
        res = run(compiled, spec)
        assert res.fault_stats.pe_deaths == 0
        assert res.makespan_s == base.makespan_s


# ---------------------------------------------------------------------------
# Channel faults and slow PEs


class TestChannelFaults:
    def test_drops_are_counted_and_shed(self):
        spec = {
            "seed": 11,
            "channel": {"drop_probability": 0.02},
            "recovery": {"shed": True},
        }
        compiled = compiled_pipeline()
        base = run(compiled)
        res = run(compiled, spec)
        assert res.fault_stats.transfers_dropped > 0
        assert len(res.outputs["result"]) <= len(base.outputs["result"])

    def test_duplicates_replay_transfers_on_one_edge(self):
        """Replaying the Merge -> result edge doubles the records the
        sink sees; the edge filter keeps every other channel clean."""
        spec = {"channel": {
            "duplicate_probability": 1.0,
            "edges": [["Merge", "out", "result", "in"]],
        }}
        compiled = compiled_pipeline()
        base = run(compiled)
        res = run(compiled, spec)
        assert res.fault_stats.transfers_duplicated == FRAMES
        assert len(res.outputs["result"]) == 2 * len(base.outputs["result"])

    def test_tokens_are_exempt(self):
        """Dropping every data transfer still lets control tokens flow:
        the run terminates instead of deadlocking on a lost token."""
        spec = {
            "channel": {"drop_probability": 1.0},
            "recovery": {"shed": True},
        }
        res = run(compiled_pipeline(), spec, frames=1)
        assert res.outputs["result"] == []
        assert res.fault_stats.transfers_dropped > 0


class TestSlowPEs:
    def test_slow_pe_stretches_makespan_not_values(self):
        compiled = compiled_pipeline()
        base = run(compiled)
        victims = sorted(set(compiled.mapping.assignment.values()))
        spec = {"slow_pes": [[victims[0], 4.0]]}
        res = run(compiled, spec)
        assert res.makespan_s > base.makespan_s
        for a, b in zip(res.outputs["result"], base.outputs["result"]):
            np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# Determinism


class TestDeterminism:
    SPEC = {
        "seed": 3,
        "transient": {"probability": 0.02},
        "channel": {"drop_probability": 0.005},
        "recovery": {"max_retries": 2, "backoff_cycles": 16, "shed": True},
    }

    def test_same_seed_bit_identical(self):
        compiled = compiled_pipeline()
        a = run(compiled, self.SPEC)
        b = run(compiled, self.SPEC)
        assert a.as_dict() == b.as_dict()
        assert a.fault_stats.as_dict() == b.fault_stats.as_dict()

    def test_seed_varies_the_scenario(self):
        compiled = compiled_pipeline()
        base_spec = FaultSpec.from_dict(self.SPEC)
        dicts = [
            run(compiled, base_spec.with_seed(s)).fault_stats.as_dict()
            for s in range(6)
        ]
        assert any(d != dicts[0] for d in dicts[1:])

    def test_explore_worker_pickle_path_deterministic(self):
        """The explore pool ships Jobs through dict/pickle round trips;
        the faulted stats must come out identical on both sides."""
        spec = SweepSpec.from_dict({
            "app": "image_pipeline",
            "axes": {"fault_seed": [7]},
            "fixed": {"width": 24, "height": 16, "rate_hz": RATE,
                      "faults": self.SPEC},
            "frames": 2,
        })
        job = spec.jobs()[0]
        direct = execute_job(job)
        round_tripped = execute_job(Job.from_dict(job.to_dict()))
        pickled = execute_job(pickle.loads(pickle.dumps(job)))
        keys = ["faults", "frames_shed", "unrecovered_faults", "meets",
                "makespan_s", "events"]
        for k in keys:
            assert direct[k] == round_tripped[k] == pickled[k]
        assert direct["faults"]["injected"] > 0


# ---------------------------------------------------------------------------
# Explore integration


class TestExploreFaultAxis:
    def test_fault_seed_requires_fault_scenario(self):
        from repro.explore import ExploreError
        with pytest.raises(ExploreError):
            SweepSpec.from_dict({
                "app": "image_pipeline",
                "axes": {"fault_seed": [1, 2]},
                "fixed": {"width": 16, "height": 12},
            }).jobs()

    def test_fingerprint_ignores_fault_key_order(self):
        def job_for(faults):
            return SweepSpec.from_dict({
                "app": "image_pipeline",
                "fixed": {"width": 16, "height": 12, "faults": faults},
            }).jobs()[0]

        a = job_for({"recovery": {"max_retries": 1, "shed": True},
                     "transient": {"probability": 0.01}})
        b = job_for({"transient": {"probability": 0.01},
                     "recovery": {"shed": True, "max_retries": 1}})
        assert a.fingerprint == b.fingerprint

    def test_fault_seed_changes_fingerprint(self):
        spec = SweepSpec.from_dict({
            "app": "image_pipeline",
            "axes": {"fault_seed": [1, 2]},
            "fixed": {"width": 16, "height": 12,
                      "faults": {"transient": {"probability": 0.01}}},
        })
        jobs = spec.jobs()
        assert len({j.fingerprint for j in jobs}) == 2
        assert all("faults[seed=" in j.label for j in jobs)

    def test_invalid_fault_scenario_rejected_at_expansion(self):
        from repro.explore import ExploreError
        with pytest.raises(ExploreError):
            SweepSpec.from_dict({
                "app": "image_pipeline",
                "fixed": {"width": 16, "height": 12,
                          "faults": {"transient": {"probability": 5}}},
            }).jobs()

    def test_faultless_job_stats_unchanged(self):
        spec = SweepSpec.from_dict({
            "app": "image_pipeline",
            "fixed": {"width": 16, "height": 12},
            "frames": 2,
        })
        stats = execute_job(spec.jobs()[0])
        assert "faults" not in stats
        assert "frames_shed" not in stats

    def test_example_fault_sweep_spec_loads(self):
        from pathlib import Path

        from repro.explore import load_spec
        path = Path(__file__).parent.parent / "examples" / "fault_sweep.json"
        spec = load_spec(str(path))
        jobs = spec.jobs()
        assert len(jobs) == 3
        assert len({j.fingerprint for j in jobs}) == 3


# ---------------------------------------------------------------------------
# CLI


class TestFaultCLI:
    def _spec_file(self, tmp_path, payload):
        p = tmp_path / "faults.json"
        p.write_text(json.dumps(payload))
        return str(p)

    def test_simulate_with_faults_json(self, tmp_path, capsys):
        from repro.cli import main
        path = self._spec_file(tmp_path, {
            "transient": {"probability": 0.01},
            "recovery": {"max_retries": 4, "backoff_cycles": 32},
        })
        rc = main(["simulate", "5", "--frames", "2", "--faults", path,
                   "--strict", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert payload["faults"]["unrecovered"] == 0
        assert payload["faults"]["injected"] > 0

    def test_strict_fails_on_unrecovered(self, tmp_path, capsys):
        from repro.cli import main
        path = self._spec_file(tmp_path, {
            "transient": {"probability": 0.5},
        })
        rc = main(["simulate", "5", "--frames", "2", "--faults", path,
                   "--strict", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert payload["faults"]["unrecovered"] > 0

    def test_fault_seed_requires_faults(self, capsys):
        from repro.cli import main
        rc = main(["simulate", "5", "--frames", "1", "--fault-seed", "3"])
        assert rc != 0
        assert "--faults" in capsys.readouterr().err

    def test_text_output_describes_faults(self, tmp_path, capsys):
        from repro.cli import main
        path = self._spec_file(tmp_path, {
            "transient": {"probability": 0.01},
            "recovery": {"max_retries": 4, "backoff_cycles": 32},
        })
        rc = main(["simulate", "5", "--frames", "2", "--faults", path])
        out = capsys.readouterr().out
        assert rc == 0
        assert "faults:" in out

    def test_bad_spec_file_reports_error(self, tmp_path, capsys):
        from repro.cli import main
        path = self._spec_file(tmp_path, {"transient": {"probability": 9}})
        rc = main(["simulate", "5", "--frames", "1", "--faults", path])
        assert rc != 0
        assert "probability" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Stats object


class TestFaultStats:
    def test_as_dict_keys_stable(self):
        assert set(FaultStats().as_dict()) == {
            "injected", "retries", "recovered", "unrecovered", "corrupted",
            "data_shed", "pe_deaths", "migrations", "transfers_dropped",
            "transfers_duplicated", "recovery_latency_s",
        }
