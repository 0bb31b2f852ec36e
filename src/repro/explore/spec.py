"""Declarative sweep specifications and content-addressed jobs.

A sweep names an application and a set of axes; expansion takes the
cartesian product and yields one immutable :class:`Job` per point.  Each
job is a *plain-data* description — app name plus parameter dicts — so it
crosses process boundaries trivially and its identity can be computed
without running anything.

Axis keys route automatically by name:

* ``clock_mhz``, ``memory_words``, ``read_cycles_per_element``,
  ``write_cycles_per_element`` configure the
  :class:`~repro.machine.ProcessorSpec`;
* ``mapping``, ``parallelize``, ``fuse_pipelines``, ``utilization_target``,
  ``alignment_policy`` configure :class:`~repro.transform.CompileOptions`;
* ``frames`` configures the simulation; ``telemetry`` (bool) additionally
  collects :mod:`repro.obs` telemetry and carries a critical-path summary
  in the result record;
* ``noc`` (bool or ``{"per_hop_cycles", "serialization_cycles_per_element",
  "mesh"}``) attaches the :mod:`repro.machine.noc` timing model;
  ``placement`` (``"row-major"``/``"energy"``/``"makespan"``) selects how
  the NoC placement is produced and requires ``noc``;
* everything else is passed to the application builder (validated against
  its signature at expansion time, so typos fail before any job runs).

The **fingerprint** is the job's content address: a sha256 over the
canonical JSON of the *built application graph* (when it serializes —
see :func:`repro.graph.fingerprint`) plus the processor, compile, and
simulation configuration.  Changing any kernel parameter, wiring, or
config knob changes the fingerprint; re-running an identical point hits
the cache.  Graphs with procedural inputs fall back to hashing the
declarative spec alone (documented in ``docs/explore.md``).
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import itertools
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from ..apps import (
    build_bayer_app,
    build_buffer_test_app,
    build_filter_bank_app,
    build_histogram_app,
    build_image_pipeline,
    build_multi_conv_app,
    benchmark_suite,
)
from ..errors import BlockParallelError, FaultSpecError, GraphError
from ..faults import FaultSpec
from ..graph.app import ApplicationGraph
from ..graph.serialize import FINGERPRINT_SCHEMA
from ..graph.serialize import fingerprint as graph_fingerprint
from ..machine.processor import ProcessorSpec
from ..transform.compile import CompileOptions, compile_application

__all__ = [
    "ExploreError",
    "AppTemplate",
    "APP_TEMPLATES",
    "Job",
    "SweepSpec",
    "expand",
    "load_spec",
    "compute_fingerprint",
]


class ExploreError(BlockParallelError):
    """A malformed sweep specification or job."""


PROCESSOR_KEYS = frozenset({
    "clock_mhz", "memory_words",
    "read_cycles_per_element", "write_cycles_per_element",
})
OPTION_KEYS = frozenset({
    "mapping", "parallelize", "fuse_pipelines",
    "utilization_target", "alignment_policy", "spare_processors",
})
SIM_KEYS = frozenset({"frames"})
#: NoC knobs accepted by a ``noc`` axis mapping; ``mesh`` forces the
#: mesh side length (default: smallest square fitting the processors).
NOC_KEYS = frozenset({
    "per_hop_cycles", "serialization_cycles_per_element", "mesh",
})
#: Placement strategies for the ``placement`` axis.  ``row-major`` is the
#: naive fill; the other two run ``anneal_placement`` with that objective.
PLACEMENTS = ("row-major", "energy", "makespan")
#: ``faults`` takes a fault-spec dict (see :mod:`repro.faults`);
#: ``fault_seed`` overrides/sets its seed, letting a sweep hold one
#: scenario fixed while varying only the seed axis.
FAULT_KEYS = frozenset({"faults", "fault_seed"})


@dataclass(frozen=True, slots=True)
class AppTemplate:
    """A sweep-addressable application: a name and its builder."""

    name: str
    build: Callable[..., ApplicationGraph]


#: Every app a sweep can name: the parameterized builders, then the
#: Figure 13 keys — entries whose builder takes no parameters.
APP_TEMPLATES: dict[str, AppTemplate] = {
    t.name: t for t in [
        AppTemplate("image_pipeline", build_image_pipeline),
        AppTemplate("histogram", build_histogram_app),
        AppTemplate("bayer", build_bayer_app),
        AppTemplate("buffer_test", build_buffer_test_app),
        AppTemplate("multi_conv", build_multi_conv_app),
        AppTemplate("filter_bank", build_filter_bank_app),
        *(AppTemplate(b.key, b.build) for b in benchmark_suite()),
    ]
}


@dataclass(frozen=True)
class Job:
    """One immutable design point: build, compile, simulate, measure.

    Plain data end to end — every field survives ``to_dict``/``from_dict``
    through JSON, which is how jobs travel to pool workers and into the
    result store.
    """

    #: Sweep name this job belongs to (labelling only).
    sweep: str
    #: Application: an :data:`APP_TEMPLATES` name (Figure 13 keys included).
    app: str
    #: Builder keyword arguments (positional axes like width/height/rate).
    params: tuple[tuple[str, Any], ...] = ()
    #: ProcessorSpec overrides (``clock_mhz`` etc.).
    processor: tuple[tuple[str, Any], ...] = ()
    #: CompileOptions overrides (``mapping`` etc.).
    options: tuple[tuple[str, Any], ...] = ()
    frames: int = 3
    #: Per-job wall-clock ceiling, seconds.
    timeout_s: float = 300.0
    #: Failure injection for tests/ops drills: ``{"mode": "hang" | "crash"
    #: | "error" | "flaky", ...}``.  Never set by spec expansion.
    inject: tuple[tuple[str, Any], ...] = ()
    #: Canonical JSON of a :class:`repro.faults.FaultSpec`, or "" for a
    #: perfect substrate.  Canonical so equivalent scenarios share a
    #: fingerprint and hit the same cache entry.
    faults: str = ""
    #: Collect simulation telemetry (see :mod:`repro.obs`) and carry a
    #: critical-path summary in the result record.
    telemetry: bool = False
    #: Normalized NoC knobs (defaults filled), or () for the paper's
    #: free-communication substrate.  Non-empty iff the model is on.
    noc: tuple[tuple[str, Any], ...] = ()
    #: Placement strategy when ``noc`` is on ("" means row-major).
    placement: str = ""
    #: Run the simulator's quasi-static replay engine (bit-identical
    #: results by construction; sweeps use it purely for wall time).
    replay: bool = False
    _fingerprint: str = field(default="", compare=False, repr=False)

    # -- construction helpers ------------------------------------------

    @property
    def param_dict(self) -> dict[str, Any]:
        return dict(self.params)

    @property
    def inject_dict(self) -> dict[str, Any]:
        return dict(self.inject)

    @property
    def label(self) -> str:
        bits = [f"{k}={v}" for k, v in self.params]
        bits += [f"{k}={v}" for k, v in self.processor]
        bits += [f"{k}={v}" for k, v in self.options]
        spec = self.fault_spec()
        if spec is not None:
            bits.append(f"faults[seed={spec.seed}]")
        if self.telemetry:
            bits.append("telemetry")
        if self.noc:
            knobs = dict(self.noc)
            noc_bits = [f"hop={knobs['per_hop_cycles']:g}",
                        f"ser={knobs['serialization_cycles_per_element']:g}"]
            if knobs.get("mesh") is not None:
                noc_bits.append(f"mesh={knobs['mesh']}")
            bits.append(f"noc[{', '.join(noc_bits)}]")
            if self.placement:
                bits.append(f"placement={self.placement}")
        if self.replay:
            bits.append("replay")
        return f"{self.app}({', '.join(bits)})" if bits else self.app

    def fault_spec(self) -> "FaultSpec | None":
        """The job's validated fault scenario, or None."""
        if not self.faults:
            return None
        return FaultSpec.from_json(self.faults)

    def build_app(self) -> ApplicationGraph:
        return APP_TEMPLATES[self.app].build(**self.param_dict)

    def build_processor(self) -> ProcessorSpec:
        overrides = dict(self.processor)
        clock_mhz = overrides.pop("clock_mhz", None)
        kwargs: dict[str, Any] = dict(overrides)
        if clock_mhz is not None:
            kwargs["clock_hz"] = float(clock_mhz) * 1e6
        base = ProcessorSpec(clock_hz=20e6, memory_words=512)
        return ProcessorSpec(**{
            "clock_hz": base.clock_hz,
            "memory_words": base.memory_words,
            "read_cycles_per_element": base.read_cycles_per_element,
            "write_cycles_per_element": base.write_cycles_per_element,
            **kwargs,
        })

    def build_options(self) -> CompileOptions:
        return CompileOptions(**dict(self.options))

    def measurement(self) -> tuple[str, int, float]:
        """(output kernel, chunks per frame, frame rate) for the verdict:
        :meth:`~repro.transform.CompiledApp.contract` of the compiled
        job.  Compiles to answer; a caller that already holds the
        compiled app reads ``contract()`` there instead.
        """
        contract = compile_application(
            self.build_app(), self.build_processor(), self.build_options()
        ).contract()
        return (contract["output"], contract["chunks_per_frame"],
                contract["rate_hz"])

    # -- identity ------------------------------------------------------

    @property
    def fingerprint(self) -> str:
        """Content-addressed identity; see the module docstring."""
        if self._fingerprint:
            return self._fingerprint
        fp = compute_fingerprint(self)
        object.__setattr__(self, "_fingerprint", fp)
        return fp

    # -- wire format ---------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "sweep": self.sweep,
            "app": self.app,
            "params": self.param_dict,
            "processor": dict(self.processor),
            "options": dict(self.options),
            "frames": self.frames,
            "timeout_s": self.timeout_s,
            "inject": self.inject_dict,
            "faults": json.loads(self.faults) if self.faults else None,
            "telemetry": self.telemetry,
            "noc": dict(self.noc) if self.noc else None,
            "placement": self.placement,
            "replay": self.replay,
            "fingerprint": self.fingerprint,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Job":
        return cls(
            sweep=data.get("sweep", ""),
            app=data["app"],
            params=_freeze(data.get("params", {})),
            processor=_freeze(data.get("processor", {})),
            options=_freeze(data.get("options", {})),
            frames=_frames(data.get("frames", 3)),
            timeout_s=float(data.get("timeout_s", 300.0)),
            inject=_freeze(data.get("inject", {})),
            faults=_canonical_faults(data.get("faults")),
            telemetry=bool(data.get("telemetry", False)),
            noc=_canonical_noc(data.get("noc")),
            placement=_canonical_placement(
                data.get("placement", ""), bool(data.get("noc"))
            ),
            replay=bool(data.get("replay", False)),
            _fingerprint=data.get("fingerprint", ""),
        )


def _freeze(mapping: Mapping[str, Any]) -> tuple[tuple[str, Any], ...]:
    return tuple(sorted(mapping.items()))


def _frames(value: Any) -> int:
    """A 'frames' value as it enters: a job always takes a verdict, and
    a verdict over zero frames is a vacuous pass."""
    frames = int(value)
    if frames < 1:
        raise ExploreError(f"'frames' must be at least 1, got {value!r}")
    return frames


def _canonical_faults(data: Any) -> str:
    """Validate + canonicalize a fault-spec value to its identity string."""
    if data is None or data == "":
        return ""
    if isinstance(data, FaultSpec):
        return data.canonical_json()
    if not isinstance(data, Mapping):
        raise ExploreError(
            f"'faults' must be a fault-spec object, got {type(data).__name__}"
        )
    try:
        return FaultSpec.from_dict(data).canonical_json()
    except FaultSpecError as exc:
        raise ExploreError(f"bad fault spec: {exc}") from None


def _canonical_noc(value: Any) -> tuple[tuple[str, Any], ...]:
    """Normalize a ``noc`` axis value to its frozen, defaults-filled form.

    ``True`` and an explicit ``{"per_hop_cycles": 4.0, ...}`` of the same
    defaults normalize identically, so they share a fingerprint.
    """
    if value is None or value is False or value == ():
        return ()
    if value is True:
        value = {}
    if not isinstance(value, Mapping):
        raise ExploreError(
            "'noc' must be a bool or an object with keys "
            f"{sorted(NOC_KEYS)}, got {value!r}"
        )
    unknown = set(value) - NOC_KEYS
    if unknown:
        raise ExploreError(f"unknown 'noc' keys: {sorted(unknown)}")
    mesh = value.get("mesh")
    return _freeze({
        "per_hop_cycles": float(value.get("per_hop_cycles", 4.0)),
        "serialization_cycles_per_element": float(
            value.get("serialization_cycles_per_element", 1.0)
        ),
        "mesh": None if mesh is None else int(mesh),
    })


def _canonical_placement(value: Any, noc_on: bool) -> str:
    if value is None or value == "":
        return ""
    if value not in PLACEMENTS:
        raise ExploreError(
            f"'placement' must be one of {list(PLACEMENTS)}, got {value!r}"
        )
    if not noc_on:
        raise ExploreError(
            "'placement' only affects timing through the NoC model; "
            "add a 'noc' axis or fixed value"
        )
    return str(value)


def _graph_digest(build: Callable[..., ApplicationGraph],
                  params: Mapping[str, Any]) -> str | None:
    try:
        return graph_fingerprint(build(**params))
    except GraphError:
        # Procedural input patterns refuse to serialize; the declarative
        # spec alone is then the identity (stated in docs/explore.md).
        return None


@functools.lru_cache(maxsize=1024)
def _memoised_graph_digest(build: Callable[..., ApplicationGraph],
                           params_json: str) -> str | None:
    """:func:`_graph_digest` once per design point: the jobs of a grid
    that differ only in processor, compile or simulation axes — and
    every resubmission of the grid — share one graph build."""
    return _graph_digest(build, json.loads(params_json))


def compute_fingerprint(job: Job) -> str:
    """sha256 over the built graph's canonical JSON plus job config."""
    payload: dict[str, Any] = {
        "schema": FINGERPRINT_SCHEMA,
        "app": job.app,
        "params": job.param_dict,
        "processor": dict(job.processor),
        "options": dict(job.options),
        "frames": job.frames,
        "inject": job.inject_dict,
        "faults": job.faults or None,
    }
    # Only when on: pre-telemetry fingerprints (and their cached
    # results) must stay valid for the default-off configuration.
    if job.telemetry:
        payload["telemetry"] = True
    # Same contract for the NoC axes: absent keys keep every pre-NoC
    # fingerprint (and its cached result) valid.
    if job.noc:
        payload["noc"] = dict(job.noc)
        if job.placement:
            payload["placement"] = job.placement
    # Replay is observably identical by construction, but the result
    # record differs (engagement stats, wall time), so replay-on jobs
    # get their own cache identity.  Only when on: pre-replay
    # fingerprints stay valid for the default-off configuration.
    if job.replay:
        payload["replay"] = True
    build = APP_TEMPLATES[job.app].build
    params = job.param_dict
    params_json = json.dumps(params, sort_keys=True, separators=(",", ":"),
                             default=str)
    # The memo rebuilds the graph from the key, so it only serves
    # parameters the key spells exactly (a tuple or a numpy scalar does
    # not survive JSON and builds uncached).
    if json.loads(params_json) == params:
        payload["graph"] = _memoised_graph_digest(build, params_json)
    else:
        payload["graph"] = _graph_digest(build, params)
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass(frozen=True, slots=True)
class SweepSpec:
    """A declarative design-space sweep.

    JSON form::

        {
          "name": "fig11",
          "app": "image_pipeline",
          "axes": {
            "width": [24, 48], "height": [16, 32],
            "rate_hz": [100, 400],
            "mapping": ["greedy", "1:1"]
          },
          "fixed": {"clock_mhz": 20, "memory_words": 512},
          "frames": 3,
          "timeout_s": 120
        }

    ``axes`` values are lists (grid axes); ``fixed`` values are scalars
    applied to every point.  ``points`` may replace ``axes`` with an
    explicit list of parameter dicts (a *list sweep*).
    """

    name: str
    app: str
    axes: tuple[tuple[str, tuple[Any, ...]], ...] = ()
    fixed: tuple[tuple[str, Any], ...] = ()
    points: tuple[tuple[tuple[str, Any], ...], ...] = ()
    frames: int = 3
    timeout_s: float = 300.0

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SweepSpec":
        unknown = set(data) - {"name", "app", "axes", "fixed", "points",
                               "frames", "timeout_s"}
        if unknown:
            raise ExploreError(
                f"unknown sweep spec keys: {sorted(unknown)}"
            )
        if "app" not in data:
            raise ExploreError("sweep spec needs an 'app'")
        axes = data.get("axes", {})
        for key, values in axes.items():
            if not isinstance(values, (list, tuple)) or not values:
                raise ExploreError(
                    f"axis {key!r} must be a non-empty list, got {values!r}"
                )
        return cls(
            name=data.get("name", "sweep"),
            app=data["app"],
            axes=tuple(sorted((k, tuple(v)) for k, v in axes.items())),
            fixed=_freeze(data.get("fixed", {})),
            points=tuple(_freeze(p) for p in data.get("points", ())),
            frames=_frames(data.get("frames", 3)),
            timeout_s=float(data.get("timeout_s", 300.0)),
        )

    @classmethod
    def from_json(cls, text: str) -> "SweepSpec":
        return cls.from_dict(json.loads(text))

    def jobs(self) -> list[Job]:
        return expand(self)


def _route(point: Mapping[str, Any], spec: SweepSpec) -> Job:
    params: dict[str, Any] = {}
    processor: dict[str, Any] = {}
    options: dict[str, Any] = {}
    frames = spec.frames
    telemetry = False
    noc: tuple[tuple[str, Any], ...] = ()
    placement_raw: Any = ""
    replay = False
    fault_base: Mapping[str, Any] | None = None
    fault_seed: int | None = None
    for key, value in point.items():
        if key in PROCESSOR_KEYS:
            processor[key] = value
        elif key in OPTION_KEYS:
            options[key] = value
        elif key in SIM_KEYS:
            frames = _frames(value)
        elif key == "telemetry":
            telemetry = bool(value)
        elif key == "replay":
            replay = bool(value)
        elif key == "noc":
            noc = _canonical_noc(value)
        elif key == "placement":
            placement_raw = value
        elif key == "faults":
            if value is not None and not isinstance(value, Mapping):
                raise ExploreError(
                    f"'faults' must be a fault-spec object, got {value!r}"
                )
            fault_base = value
        elif key == "fault_seed":
            fault_seed = int(value)
        else:
            params[key] = value
    _validate_builder_params(spec.app, params)
    faults = ""
    if fault_seed is not None and fault_base is None:
        raise ExploreError(
            "'fault_seed' needs a 'faults' scenario to seed "
            "(add a fixed 'faults' object)"
        )
    if fault_base is not None:
        merged = dict(fault_base)
        if fault_seed is not None:
            merged["seed"] = fault_seed
        faults = _canonical_faults(merged)
    return Job(
        sweep=spec.name,
        app=spec.app,
        params=_freeze(params),
        processor=_freeze(processor),
        options=_freeze(options),
        frames=frames,
        timeout_s=spec.timeout_s,
        faults=faults,
        telemetry=telemetry,
        noc=noc,
        placement=_canonical_placement(placement_raw, bool(noc)),
        replay=replay,
    )


_signature = functools.lru_cache(maxsize=64)(inspect.signature)


def _validate_builder_params(app: str, params: Mapping[str, Any]) -> None:
    if app not in APP_TEMPLATES:
        raise ExploreError(
            f"unknown app {app!r}: not one of {sorted(APP_TEMPLATES)}"
        )
    try:
        _signature(APP_TEMPLATES[app].build).bind(**params)
    except TypeError as exc:
        raise ExploreError(
            f"app {app!r} rejects parameters {sorted(params)}: {exc}"
        ) from None


def expand(spec: SweepSpec) -> list[Job]:
    """Expand a sweep into its immutable job list, axes in sorted-key
    order so the expansion order is deterministic."""
    fixed = dict(spec.fixed)
    jobs: list[Job] = []
    if spec.points:
        for point in spec.points:
            jobs.append(_route({**fixed, **dict(point)}, spec))
    if spec.axes or not spec.points:
        keys = [k for k, _ in spec.axes]
        value_lists = [v for _, v in spec.axes]
        for combo in itertools.product(*value_lists):
            jobs.append(_route({**fixed, **dict(zip(keys, combo))}, spec))
    if not jobs:
        raise ExploreError(f"sweep {spec.name!r} expanded to zero jobs")
    return jobs


def load_spec(path: str) -> SweepSpec:
    """Load a sweep spec from a JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ExploreError(f"sweep spec {path!r} is not JSON: {exc}") \
                from None
    if not isinstance(data, Mapping):
        raise ExploreError(f"sweep spec {path!r} must be a JSON object")
    return SweepSpec.from_dict(data)
