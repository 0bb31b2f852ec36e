"""Automatic kernel cost estimation by profiling (Section II-B).

The paper specifies per-method resource requirements explicitly but notes
they "could be estimated automatically or determined from profiling".
This module provides the profiling route: each method body is executed on
synthetic inputs, timed against a calibration workload that defines what
"one cycle" of the abstract processing element costs on the host, and the
resulting estimates can be written back into the kernel's method
registrations.

Estimates are inherently host-noisy; they are intended to *seed* the
resource model (an order-of-magnitude starting point a programmer then
refines), so the API reports medians over many repetitions and the
calibration constant alongside each estimate.

Worker-process safety
---------------------
Profiling is safe to run inside :class:`concurrent.futures`
process-pool workers (the ``repro.explore`` executor does): the only
module-level mutable state is the calibration memo below, which is
per-process, write-once per iteration count, and carries no host
resources — under ``fork`` a child inherits the parent's measured
constant (same host, still valid), under ``spawn`` each worker simply
recalibrates once.  Kernels themselves hold their state on instances,
and :func:`profile_kernel` resets the kernel before and after, so no
profiling state leaks between jobs sharing a worker.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import ResourceError
from .graph.kernel import FiringContext, Kernel
from .graph.methods import MethodCost, MethodSpec
from .tokens import EndOfFrame

__all__ = ["ProfiledCost", "ProfileReport", "calibrate", "profile_kernel",
           "apply_profile"]


@dataclass(frozen=True, slots=True)
class ProfiledCost:
    """Profiling estimate for one method."""

    method: str
    seconds_per_call: float
    cycles_estimate: int
    calls: int

    def describe(self) -> str:
        return (
            f"{self.method}: {self.seconds_per_call * 1e6:.2f} us/call "
            f"-> ~{self.cycles_estimate} cycles"
        )


@dataclass(frozen=True, slots=True)
class ProfileReport:
    """Profiling estimates for a whole kernel."""

    kernel: str
    seconds_per_cycle: float
    costs: Mapping[str, ProfiledCost]

    def cycles(self, method: str) -> int:
        return self.costs[method].cycles_estimate

    def describe(self) -> str:
        lines = [
            f"profile of {self.kernel!r} "
            f"(1 cycle == {self.seconds_per_cycle * 1e9:.2f} ns host time):"
        ]
        for cost in self.costs.values():
            lines.append(f"  {cost.describe()}")
        return "\n".join(lines)


#: Memoized calibration constants keyed by iteration count.  Per-process
#: and write-once per key: concurrent profiling jobs in one process may
#: race to fill it, but both compute the same measurement and the last
#: write wins harmlessly.  See "Worker-process safety" above.
_CALIBRATION: dict[int, float] = {}


def calibrate(iterations: int = 200_000, *, refresh: bool = False) -> float:
    """Host seconds per abstract cycle, memoized per process.

    One abstract cycle is defined as one multiply-accumulate step of a
    scalar loop — roughly the work the paper's cycle counts (e.g.
    ``3*h*w`` for a convolution) assume per element.  The measurement
    runs once per process (it costs tens of milliseconds, which would
    otherwise dominate short profiling jobs in pool workers); pass
    ``refresh=True`` to re-measure, e.g. after host frequency scaling.
    """
    if not refresh and iterations in _CALIBRATION:
        return _CALIBRATION[iterations]
    best = float("inf")
    for _ in range(3):
        acc = 0.0
        start = time.perf_counter()
        for i in range(iterations):
            acc += i * 0.5
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
    if acc < 0:  # pragma: no cover - defeat optimization, never true
        raise RuntimeError
    _CALIBRATION[iterations] = best / iterations
    return _CALIBRATION[iterations]


def _synthetic_inputs(kernel: Kernel, method: MethodSpec,
                      rng: np.random.Generator) -> dict[str, np.ndarray]:
    inputs = {}
    for port in method.data_inputs:
        spec = kernel.input_spec(port)
        inputs[port] = rng.uniform(0.0, 255.0,
                                   (spec.window.h, spec.window.w))
    return inputs


def _run_method(kernel: Kernel, method: MethodSpec,
                rng: np.random.Generator) -> None:
    token = None
    inputs: dict[str, np.ndarray] = {}
    if method.is_token_method:
        token = EndOfFrame(frame=0)
    else:
        inputs = _synthetic_inputs(kernel, method, rng)
    ctx = FiringContext(method=method, inputs=inputs, token=token)
    kernel.bind_context(ctx)
    try:
        getattr(kernel, method.name)()
    finally:
        kernel.release_context()


def profile_kernel(
    kernel: Kernel,
    *,
    repeats: int = 200,
    seed: int = 0,
    seconds_per_cycle: float | None = None,
) -> ProfileReport:
    """Estimate per-invocation cycle costs for every method of ``kernel``.

    The kernel's init methods run first (so e.g. histogram bins exist);
    each registered method then runs ``repeats`` times on synthetic inputs
    and the median call time converts to cycles via the calibration
    constant.  The kernel is reset afterwards.
    """
    if repeats < 10:
        raise ResourceError("profiling needs at least 10 repeats")
    spc = seconds_per_cycle if seconds_per_cycle else calibrate()
    rng = np.random.default_rng(seed)
    kernel.reset()
    for name, cost in kernel.init_methods.items():
        synthetic = MethodSpec(name=name, outputs=tuple(kernel.outputs),
                               cost=cost, is_source=True)
        ctx = FiringContext(method=synthetic)
        kernel.bind_context(ctx)
        getattr(kernel, name)()
        kernel.release_context()

    # Priming pass: methods may depend on state set by sibling methods
    # (run_convolve needs load_coeff's coefficients), so run everything
    # once, tolerating failures, before timing anything.
    for method in kernel.methods.values():
        if method.is_source:
            continue
        try:
            _run_method(kernel, method, rng)
        except Exception:
            pass
    costs: dict[str, ProfiledCost] = {}
    for method in kernel.methods.values():
        if method.is_source:
            continue
        times = []
        # Warm up (JIT-free Python still benefits from cache warmth).
        for _ in range(5):
            _run_method(kernel, method, rng)
        for _ in range(repeats):
            start = time.perf_counter()
            _run_method(kernel, method, rng)
            times.append(time.perf_counter() - start)
        per_call = float(np.median(times))
        costs[method.name] = ProfiledCost(
            method=method.name,
            seconds_per_call=per_call,
            cycles_estimate=max(1, round(per_call / spc)),
            calls=repeats,
        )
    kernel.reset()
    return ProfileReport(
        kernel=kernel.name, seconds_per_cycle=spc, costs=costs
    )


def apply_profile(kernel: Kernel, report: ProfileReport) -> None:
    """Replace the kernel's declared cycle costs with profiled estimates.

    State-word declarations are preserved — profiling measures time, not
    memory.
    """
    for name, profiled in report.costs.items():
        old = kernel.methods[name]
        kernel.update_method_cost(
            name,
            MethodCost(cycles=profiled.cycles_estimate,
                       state_words=old.cost.state_words),
        )
