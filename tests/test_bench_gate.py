"""The CI benchmark gate (``scripts/bench_gate.py``) behaves as promised.

The gate is the CI step that keeps ``BENCH_sim.json`` honest; this suite
is the demonstration required to trust it: an injected synthetic
regression must fail, real (committed) numbers must pass, tolerated
drift must stay quiet, and every ratio ceiling published in the payload
must be enforced from the payload itself.
"""

from __future__ import annotations

import copy
import importlib.util
import json
import pathlib

_ROOT = pathlib.Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "bench_gate", _ROOT / "scripts" / "bench_gate.py"
)
bench_gate = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_gate)


def _payload() -> dict:
    return {
        "suite": "sim_hotpath",
        "entries": [
            {
                "app": "1",
                "chip": {"name": "64"},
                "events_per_s": 100_000.0,
            },
            {
                "app": "5",
                "chip": {"name": "64"},
                "events_per_s": 250_000.0,
            },
        ],
        "telemetry": {
            "overhead": 1.8,
            "max_overhead": 2.5,
        },
        "content": {
            "ratio": 0.70,
            "max_ratio": 0.85,
        },
    }


def test_identical_payload_passes():
    base = _payload()
    lines, failures = bench_gate.gate(base, copy.deepcopy(base), 0.15)
    assert failures == []
    assert any("| 5 | 64 |" in line for line in lines)


def test_injected_regression_fails():
    base = _payload()
    fresh = copy.deepcopy(base)
    fresh["entries"][1]["events_per_s"] *= 0.70  # 30% drop on app 5
    _, failures = bench_gate.gate(base, fresh, 0.15)
    assert len(failures) == 1
    assert "app 5@64" in failures[0]


def test_tolerated_drift_stays_quiet():
    base = _payload()
    fresh = copy.deepcopy(base)
    fresh["entries"][0]["events_per_s"] *= 0.90  # 10% < the 15% limit
    fresh["entries"][1]["events_per_s"] *= 1.30  # improvements never gate
    _, failures = bench_gate.gate(base, fresh, 0.15)
    assert failures == []


def test_telemetry_ceiling_breach_fails():
    base = _payload()
    fresh = copy.deepcopy(base)
    fresh["telemetry"]["overhead"] = 2.6  # above its own 2.5 ceiling
    _, failures = bench_gate.gate(base, fresh, 0.15)
    assert any("telemetry.overhead" in f and "published bar" in f
               for f in failures)


def test_telemetry_rise_under_the_ceiling_fails():
    base = _payload()
    fresh = copy.deepcopy(base)
    fresh["telemetry"]["overhead"] = 2.3  # +28%, still under 2.5
    _, failures = bench_gate.gate(base, fresh, 0.15)
    assert len(failures) == 1
    assert "telemetry.overhead 1.800 -> 2.300" in failures[0]


def test_telemetry_drift_and_improvement_stay_quiet():
    base = _payload()
    for overhead in (1.95, 1.2):  # +8% drift; a cheaper collector
        fresh = copy.deepcopy(base)
        fresh["telemetry"]["overhead"] = overhead
        lines, failures = bench_gate.gate(base, fresh, 0.15)
        assert failures == []
        assert any(line.startswith("| telemetry | — | overhead 1.800")
                   for line in lines)


def test_content_ceiling_breach_fails():
    base = _payload()
    base["content"]["ratio"] = 0.80
    fresh = copy.deepcopy(base)
    fresh["content"]["ratio"] = 0.86  # +7.5%, but above its own 0.85
    _, failures = bench_gate.gate(base, fresh, 0.15)
    assert len(failures) == 1
    assert "content.ratio" in failures[0] and "published bar" in failures[0]


def test_content_rise_under_the_ceiling_fails():
    base = _payload()
    fresh = copy.deepcopy(base)
    fresh["content"]["ratio"] = 0.83  # +19%, still under 0.85
    _, failures = bench_gate.gate(base, fresh, 0.15)
    assert len(failures) == 1
    assert "content.ratio 0.700 -> 0.830" in failures[0]


def test_content_drift_and_improvement_stay_quiet():
    base = _payload()
    for ratio in (0.76, 0.5):  # +9% drift; bodies cheaper still
        fresh = copy.deepcopy(base)
        fresh["content"]["ratio"] = ratio
        lines, failures = bench_gate.gate(base, fresh, 0.15)
        assert failures == []
        assert any(line.startswith("| content | — | ratio 0.700")
                   for line in lines)


def test_missing_content_block_fails_and_a_new_one_does_not():
    base = _payload()
    fresh = copy.deepcopy(base)
    del fresh["content"]
    _, failures = bench_gate.gate(base, fresh, 0.15)
    assert any("content" in f and "missing" in f for f in failures)
    # A baseline from before the entry existed gates it on its own bar.
    _, failures = bench_gate.gate(fresh, base, 0.15)
    assert failures == []


def test_missing_telemetry_block_fails():
    base = _payload()
    fresh = copy.deepcopy(base)
    del fresh["telemetry"]
    _, failures = bench_gate.gate(base, fresh, 0.15)
    assert any("telemetry" in f and "missing" in f for f in failures)


def test_missing_entry_fails_and_new_entry_does_not():
    base = _payload()
    fresh = copy.deepcopy(base)
    dropped = fresh["entries"].pop(0)
    fresh["entries"].append(
        {"app": "9", "chip": {"name": "256"}, "events_per_s": 1.0}
    )
    _, failures = bench_gate.gate(base, fresh, 0.15)
    assert len(failures) == 1
    assert dropped["app"] in failures[0] and "missing" in failures[0]


def test_committed_baseline_passes_against_itself():
    """Real numbers pass: the committed BENCH_sim.json satisfies its own
    published bars and (trivially) its own throughput."""
    payload = json.loads((_ROOT / "BENCH_sim.json").read_text())
    _, failures = bench_gate.gate(payload, copy.deepcopy(payload), 0.15)
    assert failures == []


def test_main_exit_codes_and_step_summary(tmp_path, monkeypatch, capsys):
    base = _payload()
    fresh = copy.deepcopy(base)
    fresh["entries"][1]["events_per_s"] *= 0.5
    bpath = tmp_path / "base.json"
    fpath = tmp_path / "fresh.json"
    bpath.write_text(json.dumps(base))
    fpath.write_text(json.dumps(fresh))
    summary = tmp_path / "summary.md"
    monkeypatch.setenv("GITHUB_STEP_SUMMARY", str(summary))

    assert bench_gate.main([str(bpath), str(bpath)]) == 0
    assert bench_gate.main([str(bpath), str(fpath)]) == 1

    text = summary.read_text()
    assert text.count("### Simulator benchmark gate") == 2
    assert "bench gate: pass" in text and "bench gate: **FAIL**" in text
    err = capsys.readouterr().err
    assert "app 5@64" in err
