"""Quasi-static schedule replay: execute whole steady-state periods per step.

The paper's applications are steady-state streaming graphs: after a
warm-up prefix the firing pattern repeats every line/frame period.  The
discrete-event loop in :mod:`.simulator` pays one heap pop, one
readiness scan, and one poll-dedup per event.  This module removes that
cost for the periodic phase.  It is not a second simulator: there is one
event loop, and replay *rides* it — a recorder the loop reports every
event to, and a period executor the loop hands a pop to when the
recorder says a locked period starts there.  Both work on the loop's own
run state (channels, kernel/processor records, source cursors, heap,
poll-dedup dict), so set-up, channel accounting and result assembly
exist once, in :mod:`.simulator`.

How it works
------------
1. **Detect** (online, while the loop interprets): every event is
   recorded as a small structural op (codes in :mod:`.plan`) — source
   batch, poll outcome, firing signature, completion — in a bounded
   ring.  A sliding scan over the firing records looks for three
   consecutive structurally-equal blocks; the candidate period is then
   re-anchored to a time-advancing op (so a period boundary never splits
   a same-timestamp event group) and the two most recent complete
   periods are compared op-for-op.
2. **Compile**: the verified period becomes a replayable static schedule
   — precompiled firing order (frozen :class:`~.runtime.Firing` objects
   where the dispatch plan caches them, head-token rebuilds otherwise),
   precomputed read/run/write durations, per-source token-pattern, and
   per-op expected cost/emission signatures.  The period's ``(kernel,
   method)`` sequence is fingerprinted via
   :func:`repro.obs.firing_pattern_digest`; :mod:`.batch` groups the
   firings whose kernels accept vectorized execution.
3. **Replay**: whole periods execute without the heap.  Kernel bodies
   still run for real (data correctness is never assumed), but event
   times come from the recorded derivation chain (finish = poll time +
   duration; source stamps from the same running-sum iterators), and
   per-processor statistics accumulate with the same per-op float adds
   in the same order, so every float is the one the event loop would
   have produced.
4. **Verify every op**: recorded time relations (same-timestamp vs
   strictly-later) are re-checked, as are processor-busy predicates,
   firing costs (cycles, elements read/written), and emission
   port/token signatures.  Because firing *selection* in this codebase
   is value-independent (selector FSMs and token-forward counters, never
   pixel data), a fully verified op stream implies the heap would have
   made identical choices.
5. **Demote**: when a source prefetch does not match at a period
   boundary (end of input, an end-of-frame token where the period
   expects a line pattern), or any op's verification fails mid-period
   (the detector locked onto a transient sub-period, e.g. a buffer row
   interior whose costs shift at the line edge), the executor rebuilds
   the heap — source cursors, unpopped polls at the current timestamp
   (the dedup dict is maintained op-for-op precisely so this is
   possible), in-flight completions in creation order, parked-kernel
   queues — and returns to the loop, keeping the compiled plan armed for
   cheap re-locking.  When the detector gives up for good the loop drops
   the recorder and interprets bare.  Only a structural surprise inside
   a kernel body (an exception mid-execute) is a *hard divergence*: the
   entire simulation restarts bare, so the last-resort safety net is the
   unmodified event loop itself.

Known divergence
----------------
Every op verifies its premise before (or atomically with) its mutation,
so the state at the first mismatch is one the event loop could be in
mid-timestamp — but for one demotion cause it is not the state the loop
*would* be in.  The plan walks ops in recorded order; the heap orders a
timestamp's events by kind, completions before polls.  An ``order``
demotion at an ``OP_FIN`` that the plan recorded as strictly later but
whose live ``finish_time`` equals the current time discovers that
*coincident* completion only after the poll ops between the two
completions have run.  A kernel both completions wake is then polled
twice at a timestamp where the heap would have processed both
completions first and deduplicated to one poll: the schedule, outputs
and every statistic agree, ``events`` counts one extra no-op poll.  In
the suite only ``BF`` has ``order`` demotions (+1 event per frame;
``tests/test_sim_conformance.py`` pins it as a strict xfail).  An exact
fix needs a minimum-due check on every time advance.

Ineligible configurations (trace recording, active faults, telemetry,
NoC timing, bounded channels) never get a recorder: they run the bare
loop with :class:`ReplayStats` explaining why.  Replay accounting lives
on :attr:`SimulationResult.replay` only — never in ``as_dict()`` — so
replay-on and replay-off runs share one conformance surface.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from functools import partial
from itertools import chain
from typing import TYPE_CHECKING

from ..errors import SimulationError
from ..obs.spans import firing_pattern_digest
from ..tokens import ControlToken
from .batch import compile_batch_plan
from .plan import (
    OP_EMPTY,
    OP_EXEC,
    OP_FIN,
    OP_IO,
    OP_PARK,
    OP_POLLS,
    OP_RUN,
    OP_SRC,
    REC_ENTER,
    REC_OFF,
)
from .runtime import Firing
from .simulator import (
    _DELIVER,
    _FINISH,
    _POLL,
    BudgetOverrun,
    SimulationOptions,
    SimulationResult,
    _KernelState,
    _Run,
)

if TYPE_CHECKING:  # pragma: no cover
    from .simulator import Simulator

__all__ = ["ReplayStats", "run_with_replay"]


# --- detector tuning ---------------------------------------------------
#: Scan for a period every this many recorded firings.
_SCAN_EVERY = 128
#: Longest candidate period, in firing records.
_MAX_PERIOD = 4096
#: Structural-op ring bounds (trimmed back to keep amortized O(1)).
_OPS_RING = 150_000
_OPS_KEEP = 100_000
#: Interpreted events without any replay payoff before the recorder
#: shuts off for good.  Bounds the worst case — an application whose
#: true period exceeds ``_MAX_PERIOD`` (e.g. parallel pipelines whose
#: beat period is a whole frame) pays recording overhead only this long,
#: then interprets at full speed.
_GIVE_UP_EVENTS = 30_000


class _HardDivergence(Exception):
    """Mid-period mismatch: restart the whole run with replay disabled."""


@dataclass(slots=True)
class ReplayStats:
    """Execution-strategy accounting for one replay-requested run.

    Attached as :attr:`SimulationResult.replay`; deliberately excluded
    from ``as_dict()`` (it describes *how* the schedule was computed,
    not the schedule itself).
    """

    #: Whether the configuration allowed the engine at all.
    eligible: bool = False
    #: Whether at least one compiled period actually replayed.
    engaged: bool = False
    #: Why the engine stayed off / restarted (None when it ran clean).
    reason: str | None = None
    #: Times a period was compiled (re-detections after demotion count).
    periods_compiled: int = 0
    #: Whole periods executed by the replay executor.
    periods_replayed: int = 0
    #: Firings per compiled period (last compilation).
    period_firings: int = 0
    #: Events per compiled period (last compilation).
    period_events: int = 0
    #: ``repro.obs.firing_pattern_digest`` of the compiled period.
    period_fingerprint: str | None = None
    #: Events executed by the replay executor vs the event loop.
    events_replayed: int = 0
    events_interpreted: int = 0
    #: Firings executed by the replay executor, split by strategy
    #: (interpreted-loop firings are counted by neither).
    firings_batched: int = 0
    firings_scalar: int = 0
    #: Kernels the batch compiler vectorized (cumulative over compiles).
    batched_kernels: list[str] = field(default_factory=list)
    #: Clean hand-backs to the interpreter, by cause.
    demotions: dict[str, int] = field(default_factory=dict)
    #: Hard divergences that restarted the run with replay disabled.
    restarts: int = 0

    def as_dict(self) -> dict:
        return {
            "eligible": self.eligible,
            "engaged": self.engaged,
            "reason": self.reason,
            "periods_compiled": self.periods_compiled,
            "periods_replayed": self.periods_replayed,
            "period_firings": self.period_firings,
            "period_events": self.period_events,
            "period_fingerprint": self.period_fingerprint,
            "events_replayed": self.events_replayed,
            "events_interpreted": self.events_interpreted,
            "firings_batched": self.firings_batched,
            "firings_scalar": self.firings_scalar,
            "batched_kernels": list(self.batched_kernels),
            "demotions": dict(sorted(self.demotions.items())),
            "restarts": self.restarts,
        }

    def describe(self) -> str:
        if not self.eligible:
            return f"replay: ineligible ({self.reason}); interpreted run"
        if self.restarts:
            return (
                f"replay: restarted on the plain loop ({self.reason}) after "
                f"{self.periods_compiled} periods compiled; interpreted run"
            )
        total = self.events_replayed + self.events_interpreted
        share = self.events_replayed / total if total else 0.0
        if not self.engaged:
            return "replay: eligible but no period locked; interpreted run"
        demoted = sum(self.demotions.values())
        fired = self.firings_batched + self.firings_scalar
        batched = (
            f"{self.firings_batched}/{fired} firings batched, "
            if self.firings_batched
            else ""
        )
        return (
            f"replay: {self.periods_replayed} periods of "
            f"{self.period_firings} firings replayed "
            f"({share:.0%} of {total} events), "
            f"{batched}"
            f"{demoted} demotions, {self.restarts} restarts"
        )


def _ineligible_reason(opts: SimulationOptions) -> str | None:
    """Why this configuration must run without the recorder, or None.

    Trace recording observes per-event order directly,
    faults/telemetry/NoC hook the loop through their own seams, and
    bounded channels make readiness depend on backpressure wake-ups the
    period plan does not model.
    """
    if opts.trace:
        return "trace"
    if opts.faults is not None and opts.faults.active():
        return "faults"
    if opts.telemetry is not None:
        return "telemetry"
    if opts.noc is not None:
        return "noc"
    if opts.channel_capacity is not None or opts.channel_capacity_overrides:
        return "bounded-channels"
    return None


def run_with_replay(sim: "Simulator") -> SimulationResult:
    """Entry point used by :meth:`Simulator.run` when ``options.replay``.

    Eligible configurations run the event loop with the recorder
    attached; ineligible ones run it bare.  A hard divergence restarts
    the whole simulation bare, so the returned result is always exactly
    what the event loop produces.
    """
    reason = _ineligible_reason(sim.options)
    stats = ReplayStats(eligible=reason is None, reason=reason)
    try:
        result = sim._run_des(
            partial(_attach, sim, stats) if reason is None else None
        )
    except _HardDivergence as exc:
        # Nothing the aborted attempt replayed is in the result: keep
        # only what says a restart happened and what had been compiled.
        stats.restarts += 1
        stats.reason = f"hard divergence: {exc}"
        stats.engaged = False
        stats.periods_replayed = stats.events_replayed = 0
        stats.firings_batched = stats.firings_scalar = 0
        stats.batched_kernels = []
        stats.demotions = {}
        result = sim._run_des()
    stats.events_interpreted = result.events_processed - stats.events_replayed
    result.replay = stats
    return result


# ----------------------------------------------------------------------
def _firing_key(firing: Firing):
    """Structural identity of a firing, stable across periods.

    Method firings reuse the dispatch plan's frozen ``Firing`` objects,
    so the object itself is the key.  Token/forward firings are rebuilt
    per event with the live token, so the key keeps the token *type*
    (frame numbers differ every period) plus the port whose head token
    the replayed firing must pick up.
    """
    if firing.kind == "method":
        return firing
    return (
        "tok",
        firing.kind,
        firing.method,
        firing.consume_ports,
        type(firing.token),
        firing.consume_ports[0],
    )


def _emit_sig(emissions) -> tuple:
    """Flat (port, is_token, port, is_token, ...) emission signature."""
    sig: list = []
    ap = sig.append
    for port, item in emissions:
        ap(port)
        ap(isinstance(item, ControlToken))
    return tuple(sig)


def _sig_matches(emissions, esig) -> bool:
    """Whether live emissions carry the recorded :func:`_emit_sig`."""
    if 2 * len(emissions) != len(esig):
        return False
    i = 0
    for port, item in emissions:
        if port != esig[i] or \
                isinstance(item, ControlToken) is not esig[i + 1]:
            return False
        i += 2
    return True


def _fkey_label(fkey) -> str:
    method = fkey.method if type(fkey) is Firing else fkey[2]
    return method.name if method is not None else "<forward>"


def _resolve_fkey(fkey):
    """(prebuilt Firing | None, rebuild descriptor | None)."""
    if type(fkey) is Firing:
        return fkey, None
    _tag, kind, method, cports, ttype, tport = fkey
    return None, (kind, method, cports, ttype, tport)


def _rebuild_firing(st: _KernelState, rebuild) -> Firing | None:
    """Recreate a token/forward firing from the live channel head.

    Returns None when the live head does not match the plan's
    expectation — nothing is mutated, so the caller can demote cleanly
    instead of restarting.
    """
    kind, method, cports, ttype, tport = rebuild
    items = st.rk.inputs[tport].items
    if not items or type(items[0]) is not ttype:
        return None
    if kind == "forward":
        for p in cports:
            h = st.rk.inputs[p].items
            if not h or not isinstance(h[0], ControlToken):
                return None
    return Firing(kind=kind, method=method, consume_ports=cports,
                  token=items[0])


# ----------------------------------------------------------------------
def _attach(sim: "Simulator", stats: ReplayStats, run: _Run):  # noqa: C901
    """Hook detection, plan compilation and period execution onto a run.

    Returns the seam :meth:`Simulator._run_des` drives: ``record``, which
    the loop calls at each record point, and ``enter``, the period
    executor it offers a pop to when ``record`` answered ``REC_ENTER``.
    Only ever attached to eligible configurations (no trace, faults,
    telemetry, NoC or bounded channels).
    """
    events = run.events
    queued_polls = run.queued_polls
    next_seq = run.next_seq
    sources = run.sources
    budget_overruns = run.budget_overruns
    push = run.push
    heappush = heapq.heappush
    max_events = sim.options.max_events
    batch_on = sim.options.batch
    clock = sim.processor.clock_hz
    rcpe = sim.processor.read_cycles_per_element
    wcpe = sim.processor.write_cycles_per_element

    def rdeliver(time: float, st_src: _KernelState, port: str, item) -> None:
        # The loop's deliver minus the heap push — polls are ops of the
        # compiled period.  The dedup dict is still maintained exactly
        # (set here, popped at each poll op) so a mid-period demotion can
        # requeue precisely the polls the event loop would have pending.
        is_token = isinstance(item, ControlToken)
        for ch, dst, checked in st_src.out.get(port, ()):
            push(time, ch, item, is_token, checked)
            if queued_polls.get(dst) != time:
                queued_polls[dst] = time

    # --- detector / plan state ------------------------------------------
    ops: list = []          # structural op ring (raw tuples)
    base = 0                # absolute index of ops[0]
    fir: list = []          # firing records (st, signature)
    fir_op: list = []       # absolute op index of each firing record
    next_scan = _SCAN_EVERY
    raw_plan: list = []     # compiled period, raw-op form
    xplan: list = []        # compiled period, execution form
    xev: list = []          # cumulative event count through xplan[i]
    bplan = None            # batched-execution groups over xplan
    src_plan: tuple = ()    # ((source, token-pattern of its demand), ...)
    plan_len = 0
    plan_fir_len = 0        # firing records per compiled period
    period_events = 0
    min_fir_L = 1           # alias-escalation floor for the detector
    last_payoff = 0         # event count at the last replayed period
    plan_cyc_start = 0      # event count when the plan compiled
    plan_cyc_replayed = 0   # events_replayed when the plan compiled
    detect_off = False      # escalated past _MAX_PERIOD: stop recording
    armed = False           # verifying the live stream against raw_plan
    phase = 0               # next raw_plan index while armed
    seeking = False         # re-locking a kept plan after demotion
    match_pos = 0
    inflight: dict = {}     # replay-mode pending completions, in order

    def build_xplan(raw):
        """Compile raw ops to plan ops (layouts: :mod:`.plan`), or None."""
        plan: list = []
        cum: list = []  # cumulative event count through each op
        kinds_acc: dict[int, list] = {}
        ev_count = 0
        firings = 0
        pattern: list = []
        # Consecutive no-op polls and parks collapse into one OP_POLLS:
        # each sub-entry keeps its own state check and the event count
        # before it, so a mid-run mismatch demotes with exactly the
        # granularity separate ops would have — only the per-op dispatch
        # overhead is shed.
        poll_acc: list = []

        def flush_polls():
            if poll_acc:
                plan.append((OP_POLLS, tuple(poll_acc)))
                cum.append(poll_acc[-1][3] + 1)
                poll_acc.clear()

        for op in raw:
            code = op[0]
            rel = op[1]
            if code == OP_SRC:
                flush_polls()
                idx = op[2]
                kinds_acc.setdefault(idx, []).extend(op[4])
                ev_count += op[3]
                plan.append((OP_SRC, sources[idx], op[3], rel))
                cum.append(ev_count)
                continue
            ev_count += 1
            if rel and code != OP_FIN:
                # Polls pop at their queueing time; a time-advancing
                # poll means the window is not a real period.
                return None
            st = op[2]
            if code in (OP_RUN, OP_EMPTY, OP_PARK):
                poll_acc.append(
                    (code, st, st.proc if code == OP_PARK else None,
                     ev_count - 1)
                )
                continue
            flush_polls()
            cum.append(ev_count)
            if code == OP_FIN:
                plan.append((OP_FIN, st, rel))
            elif code == OP_EXEC:
                if op[7]:
                    # Data-dependent cycle charge observed while
                    # learning: the period is not static.
                    return None
                firing, rebuild = _resolve_fkey(op[3])
                cycles, eread, ewrit, esig = op[4], op[5], op[6], op[8]
                read_s = eread * rcpe / clock
                run_s = cycles / clock
                write_s = ewrit * wcpe / clock
                plan.append((
                    OP_EXEC, st, st.proc, firing, rebuild, read_s, run_s,
                    write_s, read_s + run_s + write_s, cycles, eread, ewrit,
                    esig, len(esig) // 2,
                ))
                firings += 1
                pattern.append((st.name, _fkey_label(op[3])))
            else:  # OP_IO
                entries = []
                for fkey, esig, nout in op[3]:
                    firing, rebuild = _resolve_fkey(fkey)
                    entries.append(
                        (firing, rebuild, esig, len(esig) // 2, nout)
                    )
                    pattern.append((st.name, _fkey_label(fkey)))
                    firings += 1
                plan.append((OP_IO, st, tuple(entries)))
        flush_polls()
        splan = tuple(
            (sources[idx], tuple(kinds)) for idx, kinds in kinds_acc.items()
        )
        return (plan, cum, splan, ev_count, firings,
                firing_pattern_digest(pattern))

    def compile_plan(n: int, L: int, processed: int) -> bool:
        nonlocal raw_plan, xplan, xev, src_plan, plan_len, period_events
        nonlocal armed, phase, seeking, match_pos, plan_fir_len
        nonlocal plan_cyc_start, plan_cyc_replayed, bplan
        s0 = fir_op[n - 3 * L] - base
        s1 = fir_op[n - 2 * L] - base
        s2 = fir_op[n - L] - base
        if s0 <= 0:
            return False
        # Re-anchor each block start to its time-group leader so the
        # period boundary strictly advances time (then every poll
        # queued inside period k also pops inside period k, and the
        # demotion state is sources + in-flight completions only).
        while s0 > 0 and ops[s0][1] == 0:
            s0 -= 1
        while ops[s1][1] == 0:
            s1 -= 1
        while ops[s2][1] == 0:
            s2 -= 1
        if ops[s0][1] != 1:
            return False
        P = s2 - s1
        if P < 2 or s1 - s0 != P:
            return False
        if ops[s1:s2] != ops[s0:s1]:
            return False
        raw = ops[s1:s2]
        first = raw[0]
        if first[1] != 1 or first[0] not in (OP_SRC, OP_FIN):
            return False
        # The partially-recorded third period must match the plan's
        # prefix — that is the arming phase we resume from.
        tail = ops[s2:]
        npre = len(tail)
        if npre == 0 or npre >= P or raw[:npre] != tail:
            return False
        built = build_xplan(raw)
        if built is None:
            return False
        xplan, xev, src_plan, period_events, firings, digest = built
        raw_plan = raw
        plan_len = P
        plan_fir_len = L
        plan_cyc_start = processed
        plan_cyc_replayed = stats.events_replayed
        armed = True
        phase = npre
        seeking = False
        match_pos = 0
        stats.periods_compiled += 1
        stats.period_events = period_events
        stats.period_firings = firings
        stats.period_fingerprint = digest
        bplan = None
        if batch_on:
            try:
                bplan = compile_batch_plan(xplan)
            except Exception:
                # A compiler surprise must never cost correctness:
                # the period simply replays per-firing.
                bplan = None
            if bplan is not None:
                stats.batched_kernels = sorted(
                    set(stats.batched_kernels) | set(bplan.kernel_names)
                )
        return True

    def try_detect(processed: int) -> None:
        n = len(fir)
        if n < 6:
            return
        f = fir
        last = f[-1]
        max_l = min(_MAX_PERIOD, n // 3)
        for L in range(min_fir_L, max_l + 1):
            if f[n - 1 - L] != last or f[n - 1 - 2 * L] != last:
                continue
            if f[n - 3 * L:n - 2 * L] == f[n - 2 * L:n - L] == f[n - L:n]:
                if compile_plan(n, L, processed):
                    return

    def record(code, rel, processed, who, what=None, result=None):
        """Keep one event as a raw op; detect, arm and re-lock periods.

        ``who`` is the kernel state (the source cursor for OP_SRC);
        ``what`` the firing (OP_EXEC), the ``(firing, result)`` pairs of a
        boundary drain (OP_IO) or the delivered items (OP_SRC).
        """
        nonlocal armed, phase, seeking, match_pos
        nonlocal next_scan, base, detect_off
        if detect_off:
            return REC_OFF
        if code == OP_EXEC:
            op = (code, rel, who, _firing_key(what), result.cycles,
                  result.elements_read, result.elements_written,
                  result.dynamic, _emit_sig(result.emissions))
        elif code == OP_IO:
            op = (code, rel, who, tuple(
                (_firing_key(f), _emit_sig(r.emissions),
                 len(f.consume_ports)
                 if who.is_output and f.kind == "method" else 0)
                for f, r in what
            ))
        elif code == OP_SRC:
            op = (code, rel, who.idx, len(what),
                  tuple(isinstance(item, ControlToken) for item in what))
        else:
            op = (code, rel, who)
        ops.append(op)
        answer = 0
        if armed:
            if op == raw_plan[phase]:
                phase += 1
                if phase == plan_len:
                    phase = 0
                    answer = REC_ENTER
            else:
                armed = False
                seeking = True
                match_pos = 0
        elif seeking:
            if op == raw_plan[match_pos]:
                match_pos += 1
                if match_pos == plan_len:
                    # A full period re-matched: the next pop is a
                    # boundary, enter without re-recording 3 blocks.
                    match_pos = 0
                    answer = REC_ENTER
            elif match_pos and op == raw_plan[0]:
                match_pos = 1
            else:
                match_pos = 0
        if code == OP_EXEC or code == OP_IO:
            fir.append((op[2], op[3]))
            fir_op.append(base + len(ops) - 1)
            if not armed and len(fir) >= next_scan:
                next_scan = len(fir) + _SCAN_EVERY
                if processed - last_payoff > _GIVE_UP_EVENTS:
                    # No replay payoff for a long stretch: the true
                    # period (if any) is out of the detector's reach.
                    # Stop recording so interpretation runs clean.
                    detect_off = True
                    armed = seeking = False
                    ops.clear()
                    fir.clear()
                    fir_op.clear()
                    return answer or REC_OFF
                try_detect(processed)
        if len(ops) > _OPS_RING:
            drop = len(ops) - _OPS_KEEP
            del ops[:drop]
            base += drop
            k = 0
            fo = fir_op
            nf = len(fo)
            while k < nf and fo[k] < base:
                k += 1
            if k:
                del fir[:k]
                del fir_op[:k]
        return answer

    def reset_rings() -> None:
        nonlocal base, next_scan
        base += len(ops)
        ops.clear()
        fir.clear()
        fir_op.clear()
        next_scan = _SCAN_EVERY

    def try_enter(time: float, kind: int, payload) -> bool:
        """Reconcile heap state and hand the popped event to replay."""
        p0 = xplan[0]
        c0 = p0[0]
        if kind == _DELIVER:
            if c0 != OP_SRC or p0[1] is not sources[payload]:
                return False
        elif kind == _FINISH:
            if c0 != OP_FIN or p0[1] is not payload[0] or payload[1] is None:
                return False
        else:
            return False
        for ev in events:
            k = ev[1]
            if k == _POLL:
                # A queued poll at entry means the boundary does not
                # actually advance time; refuse and keep interpreting.
                return False
            if k == _FINISH and ev[3][1] is None:
                return False
        fins = sorted(
            (ev for ev in events if ev[1] == _FINISH),
            key=lambda ev: ev[2],
        )
        inflight.clear()
        for t, _k, _s, (fst, fres) in fins:
            fst.finish_time = t
            fst.finish_result = fres
            inflight[fst] = None
        events.clear()
        queued_polls.clear()
        if kind == _FINISH:
            st0, res0 = payload
            st0.finish_time = time
            st0.finish_result = res0
            inflight[st0] = None
        return True

    def demote(reason: str, processed: int) -> None:
        """Rebuild the heap and hand back to the event loop.

        Valid at a period boundary *and* mid-period: every replay op
        verifies its premise before (or atomically with) its mutation,
        so at the first mismatch the run state is one the event loop
        could be in mid-timestamp (not always the one it *would* be in:
        see "Known divergence" in the module docstring).  The heap is
        rebuilt from the three kinds of pending work — unpopped polls at
        the current timestamp (the dedup dict, in queueing order),
        in-flight completions (in creation order), and source cursors —
        with fresh sequence numbers; within-kind order is what the heap
        tie-breaking actually consumes, and the event-kind ordering
        handles the rest.
        """
        nonlocal seeking, match_pos, armed, min_fir_L, detect_off
        stats.demotions[reason] = stats.demotions.get(reason, 0) + 1
        for src in sources:
            if src.pos < len(src.buf):
                # Unconsumed prefetch goes back in front of the cursor.
                rest = list(src.buf[src.pos:])
                if src.head is not None:
                    rest.append(src.head)
                rest.extend(src.pushback)
                src.head = rest[0]
                src.pushback = iter(rest[1:])
                src.it = chain(src.pushback, src.base)
            src.buf = ()
            src.pos = 0
            if src.head is not None:
                heappush(events, (src.head[0], _DELIVER, src.idx, src.idx))
        for st, t_q in queued_polls.items():
            heappush(events, (t_q, _POLL, next_seq(), st))
        for st in inflight:
            heappush(
                events,
                (st.finish_time, _FINISH, next_seq(), (st, st.finish_result)),
            )
            st.finish_time = None
            st.finish_result = None
        inflight.clear()
        reset_rings()
        armed = False
        # Keep or escalate?  The arbiter is *productivity*, not the
        # demotion reason: a line-level plan that demotes once per
        # frame at a trim border replays nearly everything and must
        # be kept, while a row-interior alias that re-locks cheaply
        # but replays little should be traded for a coarser period.
        # Judge the plan on its replay duty-cycle since it compiled,
        # once it has had a fair chance (a few periods of wall-clock).
        lifetime = processed - plan_cyc_start
        duty = (stats.events_replayed - plan_cyc_replayed) / max(1, lifetime)
        if lifetime >= 4 * period_events and duty < 0.35:
            # Low-value plan: drop it and require the next candidate
            # period to be at least twice as coarse, so repeated
            # failures climb to the true period in O(log) locks.
            seeking = False
            if plan_fir_len:
                min_fir_L = max(min_fir_L, 2 * plan_fir_len)
            if min_fir_L > _MAX_PERIOD:
                # Nothing coarser can lock; stop paying for the
                # recorder and interpret at full speed from here on.
                detect_off = True
        else:
            # Productive plan: keep it armed for cheap re-locking.
            seeking = True
        match_pos = 0

    def enter(time: float, kind: int, payload, now: float, processed: int):
        """The period executor: from this pop on, run whole periods
        without the heap until one cannot complete, then :func:`demote`.

        Returns ``(time reached, events processed)``, or None when the
        pop is not the plan's first op and the loop should interpret it.
        """
        nonlocal armed, seeking, last_payoff
        if not try_enter(time, kind, payload):
            return None
        stats.engaged = True
        reset_rings()
        armed = seeking = False
        EXEC, FIN, SRC, POLLS, RUN, EMPTY = (
            OP_EXEC, OP_FIN, OP_SRC, OP_POLLS, OP_RUN, OP_EMPTY)
        reason = None
        while reason is None:
            # Period boundary: prefetch each source's demand and check
            # its token pattern.  A mismatch (end of input,
            # end-of-frame) demotes cleanly before anything is mutated.
            for src, kpat in src_plan:
                buf = []
                head = src.head
                it = src.it
                for want_token in kpat:
                    if head is None or isinstance(
                        head[1], ControlToken
                    ) is not want_token:
                        reason = "input-pattern"
                        break
                    buf.append(head)
                    head = next(it, None)
                src.buf = buf
                src.pos = 0
                src.head = head
                if reason is not None:
                    break
            if reason is not None:
                break
            # Batch the period's vectorizable firings against the
            # freshly prefetched inputs.  A None result (or any internal
            # surprise) runs the whole period per-firing — nothing was
            # mutated.
            prepared = None
            if bplan is not None:
                try:
                    prepared = bplan.prepare()
                except Exception:
                    prepared = None
            # Events of this period executed when it stops short; None:
            # everything before the op that stopped it.
            partial = None
            try:
                for oi, op in enumerate(xplan):
                    code = op[0]
                    if code == EXEC:
                        (_, st, ps, firing, rebuild, read_s, run_s, write_s,
                         duration, cycles, eread, ewrit, esig, _) = op
                        queued_polls.pop(st, None)
                        if st.running or ps.free_at > now:
                            reason = "order"
                            break
                        b = prepared[oi] if prepared is not None else None
                        if b is not None:
                            result, commit, bi, pairs = b
                            for ch, pred in pairs:
                                # Peek before popping: a head that is
                                # not the predicted object demotes
                                # DES-exactly, nothing consumed.
                                if ch.items[0] is not pred:
                                    reason = "batch"
                                    break
                            if reason is not None:
                                break
                            for ch, _pred in pairs:
                                ch.seqs.popleft()
                                ch.items.popleft()
                            st.rk.firings += 1
                            stats.firings_batched += 1
                            if commit is not None:
                                commit(bi)
                        else:
                            if firing is None:
                                firing = _rebuild_firing(st, rebuild)
                                if firing is None:
                                    reason = "rebuild"
                                    break
                            result = st.execute(firing)
                            stats.firings_scalar += 1
                            if not (not result.dynamic
                                    and result.cycles == cycles
                                    and result.elements_read == eread
                                    and result.elements_written == ewrit
                                    and _sig_matches(result.emissions, esig)):
                                # The firing itself is what the event
                                # loop would have run (selection is
                                # state-determined and the history
                                # verified); only its cost or emissions
                                # drifted from the plan.  Charge the
                                # actual values with the event loop's
                                # exact expressions, then demote after
                                # this op.
                                if (result.dynamic and result.cycles
                                        > result.declared_cycles):
                                    budget_overruns.append(BudgetOverrun(
                                        time=now, kernel=st.name,
                                        method=result.label,
                                        declared_cycles=(
                                            result.declared_cycles),
                                        actual_cycles=result.cycles,
                                    ))
                                read_s = result.elements_read * rcpe / clock
                                run_s = result.cycles / clock
                                write_s = (result.elements_written
                                           * wcpe / clock)
                                duration = read_s + run_s + write_s
                                reason = "cost"
                                partial = xev[oi]
                        ps.read_s += read_s
                        ps.run_s += run_s
                        ps.write_s += write_s
                        ps.firings += 1
                        ps.free_at = ft = now + duration
                        st.running = True
                        st.finish_time = ft
                        st.finish_result = result
                        inflight[st] = None
                        if reason is not None:
                            break
                    elif code == FIN:
                        st = op[1]
                        t = st.finish_time
                        if t is None or (
                            (t <= now) if op[2] else (t != now)
                        ):
                            reason = "order"
                            break
                        now = t
                        st.running = False
                        result = st.finish_result
                        st.finish_time = None
                        st.finish_result = None
                        del inflight[st]
                        for port, item in result.emissions:
                            rdeliver(t, st, port, item)
                        # Mirror the event loop's re-poll of everything
                        # sharing the freed element: the polls
                        # themselves are plan ops, but the dedup dict
                        # must carry them for mid-period demotion.
                        pending = st.proc.pending
                        pending.append(st)
                        for other in pending:
                            if queued_polls.get(other) != t:
                                queued_polls[other] = t
                        pending.clear()
                    elif code == SRC:
                        src = op[1]
                        buf = src.buf
                        pos = src.pos
                        t = buf[pos][0]
                        if (t <= now) if op[3] else (t != now):
                            reason = "order"
                            break
                        now = t
                        st_src = src.st
                        end = pos + op[2]
                        n = 0
                        split = False
                        while pos < end:
                            tt, item = buf[pos]
                            if tt != t:
                                # Batch ends earlier than the plan
                                # recorded.
                                split = True
                                break
                            pos += 1
                            n += 1
                            rdeliver(t, st_src, "out", item)
                        if not split:
                            # The recorded batch must also *end* here:
                            # the event loop drains every
                            # same-timestamp item in one event.
                            if pos < len(buf):
                                split = buf[pos][0] <= t
                            else:
                                h = src.head
                                split = h is not None and h[0] <= t
                            if split:
                                # Drain the rest live, then demote with
                                # the true count.
                                while True:
                                    if pos < len(buf):
                                        tt, item = buf[pos]
                                        if tt != t:
                                            break
                                        pos += 1
                                    else:
                                        h = src.head
                                        if h is None or h[0] != t:
                                            break
                                        item = h[1]
                                        src.head = next(src.it, None)
                                    n += 1
                                    rdeliver(t, st_src, "out", item)
                        src.pos = pos
                        if split:
                            reason = "order"
                            partial = (xev[oi - 1] if oi else 0) + n
                            break
                    elif code == POLLS:
                        for scode, st, ps, before in op[1]:
                            queued_polls.pop(st, None)
                            if scode == RUN:
                                ok = st.running
                            elif scode == EMPTY:
                                ok = not (st.running
                                          or st.proc.free_at > now)
                            else:  # OP_PARK
                                ok = not (st.running or ps.free_at <= now)
                                if ok and st not in ps.pending:
                                    ps.pending.append(st)
                            if not ok:
                                reason = "order"
                                partial = before
                                break
                        if reason is not None:
                            break
                    else:  # OP_IO: off-chip boundary burst
                        st = op[1]
                        queued_polls.pop(st, None)
                        good = not st.running
                        if good:
                            for firing, rebuild, esig, _nemit, nout in op[2]:
                                if firing is None:
                                    firing = _rebuild_firing(st, rebuild)
                                    if firing is None:
                                        good = False
                                        break
                                result = st.execute(firing)
                                stats.firings_scalar += 1
                                aout = 0
                                if st.is_output and firing.kind == "method":
                                    aout = len(firing.consume_ports)
                                    st.output_times.extend([now] * aout)
                                for port, item in result.emissions:
                                    rdeliver(now, st, port, item)
                                if aout != nout or not _sig_matches(
                                    result.emissions, esig
                                ):
                                    good = False
                                    break
                        if not good:
                            # Finish the drain exactly as the event loop
                            # would, then demote.
                            while not st.running:
                                firing = st.ready()
                                if firing is None:
                                    break
                                result = st.execute(firing)
                                stats.firings_scalar += 1
                                if st.is_output and firing.kind == "method":
                                    st.output_times.extend(
                                        [now] * len(firing.consume_ports)
                                    )
                                for port, item in result.emissions:
                                    rdeliver(now, st, port, item)
                            reason = "io"
                            partial = xev[oi]
                            break
            except Exception as exc:
                # Any structural surprise (a kernel body raising, a
                # channel underflow) restarts the run on the bare loop,
                # which reproduces the behavior — including the
                # exception — exactly.
                raise _HardDivergence(f"executor error: {exc!r}") from exc
            if reason is not None:
                # Partial period: account the events that actually
                # executed, then demote mid-stream.
                if partial is None:
                    partial = xev[oi - 1] if oi else 0
                processed += partial
                stats.events_replayed += partial
                if partial:
                    last_payoff = processed
                break
            processed += period_events
            stats.events_replayed += period_events
            stats.periods_replayed += 1
            last_payoff = processed
            if processed > max_events:
                raise SimulationError(
                    f"simulation exceeded {max_events} events; "
                    "the application is likely livelocked"
                )
        demote(reason, processed)
        return now, processed

    return record, enter
