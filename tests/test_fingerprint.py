"""Tests for content-addressed graph and job fingerprints."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.apps import build_bayer_app, build_image_pipeline
from repro.errors import GraphError
from repro.explore import Job
from repro.graph import (
    ApplicationGraph,
    canonical_json,
    fingerprint,
)
from repro.kernels import ApplicationOutput, ConvolutionKernel, IdentityKernel

PIPELINE_FP_CODE = (
    "from repro.apps import build_image_pipeline;"
    "from repro.graph import fingerprint;"
    "print(fingerprint(build_image_pipeline(16, 12, 100.0)))"
)


def _fingerprint_in_fresh_process() -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", PIPELINE_FP_CODE],
        capture_output=True, text=True, check=True, env=env,
    )
    return proc.stdout.strip()


class TestGraphFingerprint:
    def test_stable_across_process_restarts(self):
        local = fingerprint(build_image_pipeline(16, 12, 100.0))
        assert _fingerprint_in_fresh_process() == local
        assert _fingerprint_in_fresh_process() == local

    def test_deterministic_within_process(self):
        a = fingerprint(build_image_pipeline(16, 12, 100.0))
        b = fingerprint(build_image_pipeline(16, 12, 100.0))
        assert a == b

    def test_changes_with_any_builder_parameter(self):
        base = fingerprint(build_image_pipeline(16, 12, 100.0))
        assert fingerprint(build_image_pipeline(24, 12, 100.0)) != base
        assert fingerprint(build_image_pipeline(16, 16, 100.0)) != base
        assert fingerprint(build_image_pipeline(16, 12, 101.0)) != base
        assert fingerprint(
            build_image_pipeline(16, 12, 100.0, hist_lo=-512)
        ) != base

    def test_changes_with_kernel_constructor_argument(self):
        def conv_app(coeff):
            app = ApplicationGraph("c")
            app.add_input("Input", 8, 8, 10.0)
            app.add_kernel(ConvolutionKernel(
                "conv", 3, 3, with_coeff_input=False, coeff=coeff
            ))
            app.add_kernel(ApplicationOutput("Out", 1, 1))
            app.connect("Input", "out", "conv", "in")
            app.connect("conv", "out", "Out", "in")
            return app

        a = fingerprint(conv_app(np.ones((3, 3))))
        b = fingerprint(conv_app(np.ones((3, 3)) * 2.0))
        assert a != b

    def test_insertion_order_invariant(self):
        def build(order):
            app = ApplicationGraph("order")
            app.add_input("Input", 8, 8, 10.0)
            kernels = {
                "a": IdentityKernel("a"),
                "b": IdentityKernel("b"),
            }
            for name in order:
                app.add_kernel(kernels[name])
            app.add_kernel(ApplicationOutput("Out", 1, 1))
            app.connect("Input", "out", "a", "in")
            app.connect("a", "out", "b", "in")
            app.connect("b", "out", "Out", "in")
            return app

        assert fingerprint(build("ab")) == fingerprint(build("ba"))

    def test_canonical_json_sorted(self):
        data = canonical_json(build_image_pipeline(16, 12, 100.0))
        names = [k["name"] for k in data["kernels"]]
        assert names == sorted(names)
        assert data["channels"] == sorted(data["channels"])
        assert "fingerprint_schema" in data

    def test_procedural_inputs_refuse(self):
        # The Bayer mosaic generator is a callable constructor argument.
        with pytest.raises(GraphError):
            fingerprint(build_bayer_app(8, 8, 10.0))


class TestJobFingerprint:
    BASE = dict(sweep="s", app="image_pipeline",
                params={"width": 16, "height": 12, "rate_hz": 100.0})

    def test_equal_for_identical_jobs(self):
        a = Job.from_dict(dict(self.BASE))
        b = Job.from_dict(dict(self.BASE))
        assert a.fingerprint == b.fingerprint

    def test_round_trip_preserves_fingerprint(self):
        job = Job.from_dict(dict(self.BASE))
        clone = Job.from_dict(job.to_dict())
        assert clone == job
        assert clone.fingerprint == job.fingerprint

    def test_sensitive_to_every_config_layer(self):
        base = Job.from_dict(dict(self.BASE)).fingerprint
        others = [
            Job.from_dict({**self.BASE,
                           "params": {**self.BASE["params"], "width": 24}}),
            Job.from_dict({**self.BASE, "processor": {"clock_mhz": 40}}),
            Job.from_dict({**self.BASE, "options": {"mapping": "1:1"}}),
            Job.from_dict({**self.BASE, "frames": 5}),
            Job.from_dict({**self.BASE, "inject": {"mode": "error"}}),
        ]
        fps = [j.fingerprint for j in others]
        assert base not in fps
        assert len(set(fps)) == len(fps)

    def test_memoised_graph_digest_is_the_unmemoised_one(self, monkeypatch):
        """The graph digest is memoised per (builder, canonical params);
        every fingerprint must equal what building and hashing the
        job's own graph gives — on the miss and on the hit, for every
        app a sweep can name, and for parameters equal under ``==`` but
        not under JSON (``50`` and ``50.0`` hash alike)."""
        from repro.explore import spec

        points = [{"app": name} for name in spec.APP_TEMPLATES]
        points += [
            {**self.BASE, "telemetry": True},
            {**self.BASE, "noc": True, "placement": "energy"},
            {**self.BASE, "replay": True},
            {**self.BASE, "faults": {"seed": 3}},
            {**self.BASE, "params": {"width": 16, "height": 12,
                                     "rate_hz": 50}},
            {**self.BASE, "params": {"width": 16, "height": 12,
                                     "rate_hz": 50.0}},
            # Does not survive JSON: served by the uncached path.
            {**self.BASE, "params": {"width": np.int64(16), "height": 12,
                                     "rate_hz": 50.0}},
            {"app": "bayer", "params": {"width": 8, "height": 8,
                                        "rate_hz": 10.0}},
        ]
        jobs = [Job.from_dict({"sweep": "s", **p}) for p in points]
        spec._memoised_graph_digest.cache_clear()
        missed = [spec.compute_fingerprint(j) for j in jobs]
        hit = [spec.compute_fingerprint(j) for j in jobs]
        assert spec._memoised_graph_digest.cache_info().hits >= len(jobs) - 1

        def digest_of_own_graph(job):
            try:
                return fingerprint(job.build_app())
            except GraphError:
                return None

        reference = []
        for job in jobs:
            monkeypatch.setattr(
                spec, "_memoised_graph_digest",
                lambda build, text, job=job: digest_of_own_graph(job))
            monkeypatch.setattr(
                spec, "_graph_digest",
                lambda build, params, job=job: digest_of_own_graph(job))
            reference.append(spec.compute_fingerprint(job))
        assert missed == reference
        assert hit == reference

    def test_unserializable_graph_falls_back_to_spec_hash(self):
        # Bayer's procedural input cannot be fingerprinted as a graph;
        # the declarative spec must still distinguish design points.
        a = Job.from_dict(dict(
            sweep="s", app="bayer",
            params={"width": 8, "height": 8, "rate_hz": 10.0},
        ))
        b = Job.from_dict(dict(
            sweep="s", app="bayer",
            params={"width": 16, "height": 8, "rate_hz": 10.0},
        ))
        assert a.fingerprint != b.fingerprint
        assert len(a.fingerprint) == 64
