"""Declarative sweep specifications and content-addressed jobs.

A sweep names an application and a set of axes; expansion takes the
cartesian product and yields one immutable :class:`Job` per point.  Each
job is a *plain-data* description — app name plus parameter dicts — so it
crosses process boundaries trivially and its identity can be computed
without running anything.

Axis keys route automatically by name, and every value is held to the
type of the declaration it configures (docs/explore.md "What a spec may
contain" lists them all):

* the fields of :class:`~repro.machine.ProcessorSpec` (``clock_hz`` is
  spelled ``clock_mhz``) and of :class:`~repro.transform.CompileOptions`
  configure the processor and the compile; their values are validated
  once per spec and copied into the job as the caller wrote them;
* ``frames`` configures the simulation; ``telemetry`` (bool) additionally
  collects :mod:`repro.obs` telemetry and carries a critical-path summary
  in the result record; ``replay`` (bool) selects nothing since the
  replay engine was removed, but stays accepted and keyed;
* ``noc`` (bool or an object of :func:`~repro.machine.build_noc_model`'s
  knobs) attaches the :mod:`repro.machine.noc` timing model;
  ``placement`` (``"row-major"``/``"energy"``/``"makespan"``) selects how
  the NoC placement is produced and requires ``noc``;
* ``faults`` takes a :class:`~repro.faults.FaultSpec` object and
  ``fault_seed`` sets its seed;
* everything else is passed to the application builder (names and types
  validated against its signature at expansion time, so typos fail
  before any job runs).

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
import typing
from dataclasses import dataclass, field, make_dataclass, replace
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
from ..machine.noc import NocModel
from ..machine.placement import build_noc_model
from ..machine.processor import ProcessorSpec
from ..records import (
    checker,
    conform,
    defaults,
    dump,
    load,
    load_file,
    parse_json,
)
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


#: One signature per builder, string annotations resolved: what an app
#: parameter or a NoC knob may be is what its builder's signature says.
_signature = functools.lru_cache(maxsize=64)(
    functools.partial(inspect.signature, eval_str=True)
)


def _field_axes(cls: type, **renamed: str) -> dict[str, Any]:
    """Axis name → annotation, one axis per field of ``cls``; a declared
    bound (``Annotated[float, POSITIVE]``) stays on the annotation, so
    an axis value is held to it at expansion."""
    hints = typing.get_type_hints(cls, include_extras=True)
    return {renamed.get(name, name): annotation
            for name, annotation in hints.items()}


#: Axes copied into ``Job.processor`` / ``Job.options`` as written.
PROCESSOR_AXES = _field_axes(ProcessorSpec, clock_hz="clock_mhz")
OPTION_AXES = _field_axes(CompileOptions)
PROCESSOR_KEYS = frozenset(PROCESSOR_AXES)
OPTION_KEYS = frozenset(OPTION_AXES)
SIM_KEYS = frozenset({"frames"})
#: The object form of a ``noc`` axis value: the keywords of
#: :func:`build_noc_model` a job may set, each defaulting to the
#: :class:`NocModel` field of its name; ``mesh`` forces the mesh side
#: length (default ``None``: the smallest square fitting the processors).
NocKnobs = make_dataclass("NocKnobs", [
    (name, parameter.annotation, defaults(NocModel).get(name))
    for name, parameter in _signature(build_noc_model).parameters.items()
    if parameter.kind is parameter.KEYWORD_ONLY and name != "placement"
], frozen=True)
NOC_KEYS = frozenset(defaults(NocKnobs))
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
    #: Passed to ``SimulationOptions.replay``, which selects nothing (the
    #: replay engine was removed); kept so existing specs and their
    #: fingerprints stay valid.
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
        if clock_mhz is not None:
            overrides["clock_hz"] = clock_mhz * 1e6
        return replace(
            ProcessorSpec(clock_hz=20e6, memory_words=512), **overrides
        )

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
        data = _table(data, "job", ExploreError)

        def take(key: str, annotation: Any, default: Any = None) -> Any:
            return checker(annotation)(data.get(key, default), key,
                                       ExploreError)

        def table(key: str) -> tuple[tuple[str, Any], ...]:
            return _freeze(_table(data.get(key, {}), key, ExploreError))

        noc = _canonical_noc(data.get("noc"))
        return cls(
            sweep=take("sweep", str, ""),
            app=take("app", str),
            params=table("params"),
            processor=table("processor"),
            options=table("options"),
            frames=_frames(data.get("frames", cls.frames)),
            timeout_s=take("timeout_s", float, cls.timeout_s),
            inject=table("inject"),
            faults=_canonical_faults(data.get("faults")),
            telemetry=take("telemetry", bool, False),
            noc=noc,
            placement=_placement(take("placement", JOB_AXES["placement"]),
                                 noc),
            replay=take("replay", bool, False),
            _fingerprint=take("fingerprint", str, ""),
        )


#: The check of a JSON object with string keys (a job, its tables).
_table = checker(Mapping[str, Any])


def _freeze(mapping: Mapping[str, Any]) -> tuple[tuple[str, Any], ...]:
    return tuple(sorted(mapping.items()))


def _frames(value: Any) -> int:
    """A 'frames' value as it enters: a job always takes a verdict, and
    a verdict over zero frames is a vacuous pass."""
    frames = checker(int)(value, "frames", ExploreError)
    if frames < 1:
        raise ExploreError(f"'frames' must be at least 1, got {value!r}")
    return frames


def _fault_spec(data: Any) -> FaultSpec:
    try:
        return FaultSpec.from_dict(data)
    except FaultSpecError as exc:
        raise ExploreError(f"bad fault spec: {exc}") from None


def _canonical_faults(data: Any) -> str:
    """Validate + canonicalize a fault-spec value to its identity string."""
    if data is None or data == "":
        return ""
    return _fault_spec(data).canonical_json()


def _canonical_noc(value: Any) -> tuple[tuple[str, Any], ...]:
    """Normalize a ``noc`` axis value to its frozen, defaults-filled form.

    ``True`` and an explicit ``{"per_hop_cycles": 4.0, ...}`` of the same
    defaults normalize identically, so they share a fingerprint.
    """
    if value is None or value is False or value == ():
        return ()
    return _freeze(dump(checker(NocKnobs)(
        {} if value is True else value, "noc", ExploreError
    )))


def _placement(value: str | None, noc: tuple) -> str:
    """A checked ``placement`` beside the ``noc`` value it rides on."""
    if value and not noc:
        raise ExploreError(
            "'placement' only affects timing through the NoC model; "
            "add a 'noc' axis or fixed value"
        )
    return value or ""


#: Axes loaded into a typed :class:`Job` field (or the fault scenario's
#: seed): each is held to that field's own annotation.  ``noc`` and
#: ``faults`` are the two object-valued ones (:func:`_load_value`).
JOB_AXES = {
    **{name: typing.get_type_hints(Job, include_extras=True)[name]
       for name in ("frames", "telemetry", "replay")},
    "fault_seed": typing.get_type_hints(FaultSpec, include_extras=True)["seed"],
    "placement": typing.Literal[("",) + PLACEMENTS] | None,
}
_LOADED_KEYS = frozenset(JOB_AXES) | {"noc", "faults"}


def _graph_digest(build: Callable[..., ApplicationGraph],
                  params: Mapping[str, Any]) -> str | None:
    app = build(**params)  # a builder's refusal is the caller's to see
    try:
        return graph_fingerprint(app)
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
    # Replay-on jobs keep the cache identity they had while a replay
    # engine existed (their record carries the replay ledger), so
    # existing caches keep answering.  Only when on: pre-replay
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

    app: str
    name: str = "sweep"
    axes: Mapping[str, tuple[Any, ...]] = field(default_factory=dict)
    fixed: Mapping[str, Any] = field(default_factory=dict)
    points: tuple[Mapping[str, Any], ...] = ()
    frames: int = 3
    timeout_s: float = 300.0

    def __post_init__(self) -> None:
        conform(self, error=ExploreError, where="")
        _frames(self.frames)
        for key, values in self.axes.items():
            if not values:
                raise ExploreError(
                    f"axis {key!r} must be a non-empty list, got []"
                )

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SweepSpec":
        return load(cls, data, error=ExploreError, where="sweep spec")

    @classmethod
    def from_json(cls, text: str) -> "SweepSpec":
        return cls.from_dict(
            parse_json(text, error=ExploreError, what="sweep spec")
        )

    def jobs(self) -> list[Job]:
        return expand(self)


def _load_value(app: str, key: str, value: Any) -> Any:
    """One spec value as its jobs will carry it, held to the declaration
    it configures.

    A processor or compile-option axis and a builder parameter are
    validated, never rewritten — ``Job.to_dict()``, labels and
    fingerprints keep the caller's ``20`` vs ``20.0``; a typed
    :class:`Job` field is loaded (``2.0`` frames are ``2``).
    """
    if key == "noc":
        return _canonical_noc(value)
    if key == "faults":
        return None if value is None else _fault_spec(value)
    if key == "frames":
        return _frames(value)
    annotation = (JOB_AXES.get(key) or PROCESSOR_AXES.get(key)
                  or OPTION_AXES.get(key))
    if annotation is None:
        parameter = _signature(APP_TEMPLATES[app].build).parameters.get(key)
        # An unknown name is the bind's to refuse, with the whole list.
        if parameter is None or parameter.annotation is parameter.empty:
            return value
        annotation = parameter.annotation
    loaded = checker(annotation)(value, key, ExploreError)
    return loaded if key in JOB_AXES else value


@functools.lru_cache(maxsize=256)
def _validate_builder_params(build: Callable[..., ApplicationGraph],
                             app: str, names: frozenset[str]) -> None:
    """Whether ``build`` takes ``names`` depends on the names alone, so
    a grid asks once, not once per point."""
    try:
        _signature(build).bind(**dict.fromkeys(names))
    except TypeError as exc:
        raise ExploreError(
            f"app {app!r} rejects parameters {sorted(names)}: {exc}"
        ) from None


def _route(point: Mapping[str, Any], spec: SweepSpec) -> Job:
    """The job of one point whose values :func:`_load_value` has seen."""
    params: dict[str, Any] = {}
    processor: dict[str, Any] = {}
    options: dict[str, Any] = {}
    loaded: dict[str, Any] = {}
    for key, value in point.items():
        if key in PROCESSOR_KEYS:
            processor[key] = value
        elif key in OPTION_KEYS:
            options[key] = value
        elif key in _LOADED_KEYS:
            loaded[key] = value
        else:
            params[key] = value
    _validate_builder_params(APP_TEMPLATES[spec.app].build, spec.app,
                             frozenset(params))
    scenario = loaded.get("faults")
    if "fault_seed" in loaded:
        if scenario is None:
            raise ExploreError(
                "'fault_seed' needs a 'faults' scenario to seed "
                "(add a fixed 'faults' object)"
            )
        scenario = scenario.with_seed(loaded["fault_seed"])
    noc = loaded.get("noc", ())
    return Job(
        sweep=spec.name,
        app=spec.app,
        params=_freeze(params),
        processor=_freeze(processor),
        options=_freeze(options),
        frames=loaded.get("frames", spec.frames),
        timeout_s=spec.timeout_s,
        faults="" if scenario is None else scenario.canonical_json(),
        telemetry=loaded.get("telemetry", False),
        noc=noc,
        placement=_placement(loaded.get("placement"), noc),
        replay=loaded.get("replay", False),
    )


def expand(spec: SweepSpec) -> list[Job]:
    """Expand a sweep into its immutable job list, axes in sorted-key
    order so the expansion order is deterministic.

    A value is checked once per spec, not once per expanded point: the
    grid multiplies jobs, not distinct values.
    """
    if spec.app not in APP_TEMPLATES:
        raise ExploreError(
            f"unknown app {spec.app!r}: not one of {sorted(APP_TEMPLATES)}"
        )

    def load_values(point: Mapping[str, Any]) -> dict[str, Any]:
        return {key: _load_value(spec.app, key, value)
                for key, value in point.items()}

    fixed = load_values(spec.fixed)
    jobs = [_route({**fixed, **load_values(point)}, spec)
            for point in spec.points]
    if spec.axes or not spec.points:
        keys = sorted(spec.axes)
        columns = [[_load_value(spec.app, key, value)
                    for value in spec.axes[key]] for key in keys]
        jobs += [_route({**fixed, **dict(zip(keys, combo))}, spec)
                 for combo in itertools.product(*columns)]
    return jobs


def load_spec(path: str) -> SweepSpec:
    """Load a sweep spec from a JSON file."""
    return load_file(path, SweepSpec.from_dict, error=ExploreError,
                     what="sweep spec")
