"""The StreamIt-style inverse query: maximum rate on a processor budget.

Section VI contrasts the two optimization directions: StreamIt uses a
*fixed number of processors* to reach the highest rate possible, while
this system finds the *minimum processors* for a fixed rate.  Because the
compiler is fully automatic, the StreamIt-style query reduces to a search
over input rates: compile the application at a candidate rate, accept if
it fits the processor budget (and, optionally, the static admission
test), and binary-search the highest acceptable rate.

The application builder is a callable ``rate -> ApplicationGraph`` so
every probe gets a fresh graph with its input rate baked in.

Probes are pure functions of (graph, processor, budget, options), so
their accept/reject decisions are cacheable: pass a ``probe_cache`` (see
:class:`ProbeCache`; :mod:`repro.explore.rate_probe` provides a
disk-backed one) and repeated searches over the same configuration skip
every compile except the final winning rate, which is compiled lazily
exactly once.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import Callable, Protocol

from ..analysis.schedule import build_static_schedule
from ..errors import BlockParallelError, GraphError, TransformError
from ..graph.app import ApplicationGraph
from ..graph.serialize import fingerprint as graph_fingerprint
from ..machine.processor import ProcessorSpec
from .compile import CompiledApp, CompileOptions, compile_application

__all__ = ["ProbeCache", "RateSearchResult", "find_max_rate"]


class ProbeCache(Protocol):
    """Stores accept/reject decisions for probe configurations."""

    def get_decision(self, key: str) -> bool | None:
        """The cached decision for ``key``, or None when unknown."""

    def put_decision(self, key: str, accepted: bool) -> None:
        """Record the decision for ``key``."""


@dataclass(frozen=True, slots=True)
class RateSearchResult:
    """Outcome of a maximum-rate search."""

    best_rate_hz: float
    compiled: CompiledApp
    processor_budget: int
    probes: int
    #: (rate, accepted) for every probe, in search order.
    history: tuple[tuple[float, bool], ...]
    #: Probes answered from the ``probe_cache`` without compiling.
    cache_hits: int = 0

    def describe(self) -> str:
        cached = f", {self.cache_hits} cached" if self.cache_hits else ""
        return (
            f"max rate {self.best_rate_hz:g} Hz on "
            f"{self.compiled.processor_count}/{self.processor_budget} "
            f"processors ({self.probes} probes{cached})"
        )


def _acceptable(
    app: ApplicationGraph,
    processor: ProcessorSpec,
    budget: int,
    options: CompileOptions,
    require_admissible: bool,
) -> CompiledApp | None:
    try:
        compiled = compile_application(app, processor, options)
    except BlockParallelError:
        return None  # e.g. a serial kernel that cannot reach this rate
    if compiled.processor_count > budget:
        return None
    if require_admissible and not build_static_schedule(compiled).admissible:
        return None
    return compiled


def _probe_key(
    app: ApplicationGraph,
    rate: float,
    processor: ProcessorSpec,
    budget: int,
    options: CompileOptions,
    require_admissible: bool,
) -> str | None:
    """Content address of one probe decision, or None when the graph
    cannot be fingerprinted (procedural inputs) — such probes simply
    bypass the cache."""
    try:
        gfp = graph_fingerprint(app)
    except GraphError:
        return None
    payload = {
        "schema": 1,
        "graph": gfp,
        "rate_hz": rate,
        "processor": dataclasses.asdict(processor),
        "budget": budget,
        "options": dataclasses.asdict(options),
        "require_admissible": require_admissible,
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def find_max_rate(
    build: Callable[[float], ApplicationGraph],
    processor: ProcessorSpec,
    *,
    processor_budget: int,
    low_hz: float = 1.0,
    high_hz: float | None = None,
    tolerance: float = 0.02,
    options: CompileOptions = CompileOptions(),
    require_admissible: bool = True,
    max_probes: int = 64,
    probe_cache: ProbeCache | None = None,
) -> RateSearchResult:
    """Binary-search the highest input rate fitting ``processor_budget``.

    ``low_hz`` must be achievable (it is verified first).  ``high_hz``
    defaults to geometric doubling from ``low_hz`` until a rate fails.
    The search stops when the bracket is within ``tolerance`` (relative).

    With a ``probe_cache``, previously decided probes skip compilation;
    the returned :attr:`RateSearchResult.compiled` artifact is still
    always freshly verified at the winning rate.
    """
    if processor_budget < 1:
        raise TransformError("processor budget must be at least 1")
    if high_hz is not None and high_hz <= low_hz:
        # Probing a ceiling below the verified floor would report a rate
        # lower than one the search has just proven.
        raise TransformError(
            f"high_hz ({high_hz:g} Hz) must exceed low_hz ({low_hz:g} Hz)"
        )
    history: list[tuple[float, bool]] = []
    probes = 0
    cache_hits = 0
    #: The highest-rate accepted compile we have actually performed.
    held: tuple[float, CompiledApp] | None = None

    def probe(rate: float) -> bool:
        nonlocal probes, cache_hits, held
        probes += 1
        if probes > max_probes:
            raise TransformError(
                f"rate search exceeded {max_probes} probes; widen tolerance"
            )
        app = build(rate)
        key = None
        if probe_cache is not None:
            key = _probe_key(app, rate, processor, processor_budget,
                             options, require_admissible)
            if key is not None:
                decision = probe_cache.get_decision(key)
                if decision is not None:
                    cache_hits += 1
                    history.append((rate, decision))
                    return decision
        compiled = _acceptable(app, processor, processor_budget, options,
                               require_admissible)
        accepted = compiled is not None
        if key is not None:
            probe_cache.put_decision(key, accepted)
        if accepted and (held is None or rate > held[0]):
            held = (rate, compiled)
        history.append((rate, accepted))
        return accepted

    def result(best_rate: float) -> RateSearchResult:
        if held is not None and held[0] == best_rate:
            compiled = held[1]
        else:
            # Every accepted probe came from the cache; compile the
            # winner once and re-verify the cached decision.
            compiled = _acceptable(build(best_rate), processor,
                                   processor_budget, options,
                                   require_admissible)
            if compiled is None:
                raise TransformError(
                    f"cached probe decisions are stale: {best_rate:g} Hz "
                    "no longer fits the budget (clear the probe cache)"
                )
        return RateSearchResult(
            best_rate_hz=best_rate,
            compiled=compiled,
            processor_budget=processor_budget,
            probes=probes,
            history=tuple(history),
            cache_hits=cache_hits,
        )

    if not probe(low_hz):
        raise TransformError(
            f"the application does not fit {processor_budget} processors "
            f"even at {low_hz:g} Hz"
        )
    best_rate = low_hz

    # Bracket: double until failure (or the caller-provided ceiling).
    if high_hz is None:
        high = low_hz
        while True:
            candidate = high * 2.0
            accepted = probe(candidate)
            high = candidate
            if not accepted:
                break
            best_rate = candidate
    else:
        high = high_hz
        if probe(high):
            return result(high)

    # Binary search inside (best_rate, high).
    lo = best_rate
    while high - lo > tolerance * max(lo, 1e-12):
        mid = 0.5 * (lo + high)
        if probe(mid):
            best_rate = lo = mid
        else:
            high = mid

    return result(best_rate)
