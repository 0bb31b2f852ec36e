"""Batched quasi-static execution of compiled replay periods.

PR 7's replay engine executes a locked period as a static op walk but
still calls every Python kernel body once per firing — by then ~half of
replay wall time.  The period *is* a static firing sequence, which is
exactly the quasi-static shape StreamBlocks exploits when it fuses actor
firings into pipelines: this module compiles each period's data-method
firings into per-kernel groups and, where the kernel opts in
(:meth:`Kernel.batch_accepts` / :meth:`Kernel.batched_apply`), runs the
whole period's worth of a body as one vectorized call.

The contract with the replay walk is strict DES-exactness:

* **Simulated time is untouched.**  Batched ops charge the plan's
  precomputed per-firing costs — the same floats the scalar good path
  charges — so makespans, utilization, and output times are
  byte-identical.  Only wall time drops.
* **Values are byte-identical.**  Every vectorized body is an exact
  axis-parallel transcription of its scalar loop (axis-reduction sums,
  not matmuls; ``np.partition`` along axis 1; vectorized
  ``searchsorted``), verified by the differential harness.
* **State mutations stay per-firing.**  A batch precomputes emissions
  but applies each firing's state mutation through a ``commit(i)``
  callback at that firing's op, in schedule order — so a mid-period
  demotion leaves exactly the state sequential execution would have.
* **Any surprise falls back to the scalar walk.**  The per-period
  :meth:`BatchPlan.prepare` re-validates every gathered input (object
  type, dtype, shape) and every predicted emission (count and ports)
  against the plan; one mismatch discards the whole batch *before
  anything is mutated* and the period executes per-firing — which
  reproduces the scalar engine's own cost-divergence demotions exactly.
  At each batched op the walk additionally checks the channel head *is*
  the predicted object before popping, demoting DES-exactly otherwise.

Compilation performs a symbolic dataflow walk over the execution plan:
per-channel produced-item references in push order (source prefetch
slots, carried-over completions, batched producers' emissions), pop
counters at every consume, then a fixpoint dropping any group that
consumes an unpredictable slot, and a topological order so producers
batch before their consumers inside one period.
"""

from __future__ import annotations

import numpy as np

from .plan import OP_EXEC, OP_FIN, OP_IO, OP_SRC, X_ESIG, X_FIRING, X_REBUILD

__all__ = ["FORWARD_OTHER", "BatchResult", "BatchPlan", "compile_batch_plan"]

#: Sentinel passed to :meth:`Kernel.batch_accepts` in ``others`` when the
#: period contains automatic token forwards for the kernel (forwards only
#: touch token bookkeeping, but the kernel gets to veto).
FORWARD_OTHER = "<forward>"

_F8 = np.dtype(np.float64)


class BatchResult:
    """Stand-in for ``FiringResult`` on batched EXEC ops.

    The replay walk's FINISH handler and the demotion path only consult
    ``.emissions``; cost fields are never read because batched ops charge
    the plan's precomputed values (a cost mismatch would have failed
    :meth:`BatchPlan.prepare` and fallen back to scalar execution).
    """

    __slots__ = ("emissions",)

    def __init__(self, emissions) -> None:
        self.emissions = emissions


class _Group:
    """One kernel's batched firings within the period, in schedule order."""

    __slots__ = (
        "kernel", "method", "n", "op_indices", "cports", "ports",
        "chans", "exp_counts", "exp_ports",
    )


#: Sentinel returned by ``_gather`` when a group's needed slot is
#: *structurally* unresolvable (opaque push, non-batched producer) —
#: the same slot recurs every period, so the group is pruned for good.
_DROP = object()


class BatchPlan:
    """Per-kernel firing groups compiled from one execution plan."""

    __slots__ = ("groups", "plan_len", "kernel_names", "dead")

    def _gather(self, g, results):
        """Collect one group's per-firing inputs from current channel state.

        Returns ``{port: [item, ...]}``, ``_DROP`` when a needed slot can
        never resolve (channel occupancy is steady across periods, so the
        same slot would fail every time — prune the group permanently),
        or ``None`` for a transient surprise (carry not in flight, wrong
        dtype/shape) that scalar-executes just this period.
        """
        inputs: dict[str, list] = {}
        for port, ch, ks, shape, refs in g.ports:
            occupancy = len(ch.items)
            entry = list(ch.items) if occupancy else None
            nrefs = len(refs)
            ilist = []
            for k in ks:
                if k < occupancy:
                    it = entry[k]
                else:
                    j = k - occupancy
                    if j >= nrefs:
                        return _DROP
                    ref = refs[j]
                    if ref is None:
                        return _DROP
                    tag = ref[0]
                    if tag == 2:
                        gid = ref[1]
                        ems_list = results[gid] if gid < len(results) else None
                        if ems_list is None:
                            return _DROP
                        it = ems_list[ref[2]][ref[3]][1]
                    elif tag == 0:
                        it = ref[1].buf[ref[2]][1]
                    else:
                        fr = ref[1].finish_result
                        if fr is None:
                            return None
                        ems = fr.emissions
                        if ref[2] >= len(ems):
                            return None
                        it = ems[ref[2]][1]
                if (
                    type(it) is not np.ndarray
                    or it.dtype != _F8
                    or it.shape != shape
                ):
                    return None
                ilist.append(it)
            inputs[port] = ilist
        return inputs

    def prepare(self):
        """Batch-execute every group against the *current* channel state.

        Called once per period, after source prefetch and before the op
        walk.  Returns a list parallel to the execution plan — entry
        ``(result, commit, i, predicted_items)`` at each batched op's
        index, ``None`` elsewhere — or ``None`` to run the whole period
        per-firing.  Nothing observable is mutated here: state changes
        happen via ``commit`` during the walk, so a ``None`` return (or a
        later demotion) leaves the simulation exactly where the scalar
        engine would be.
        """
        dead = self.dead
        if len(dead) == len(self.groups):
            return None
        results: list = []
        prepared: list = [None] * self.plan_len
        for gid, g in enumerate(self.groups):
            if gid in dead:
                results.append(None)
                continue
            inputs = self._gather(g, results)
            if inputs is _DROP:
                dead.add(gid)
                results.append(None)
                continue
            if inputs is None:
                return None
            out = g.kernel.batched_apply(g.method, inputs)
            if out is None:
                return None
            ems_list, commit = out
            if len(ems_list) != g.n:
                return None
            exp_counts = g.exp_counts
            exp_ports = g.exp_ports
            for i in range(g.n):
                ems = ems_list[i]
                if len(ems) != exp_counts[i]:
                    return None
                pexp = exp_ports[i]
                for j, em in enumerate(ems):
                    if em[0] != pexp[j]:
                        return None
            results.append(ems_list)
            # Per-firing walk entries.  The (channel, predicted-item)
            # pairs let the walk peek and pop without port-name lookups;
            # the one- and two-port shapes cover every batchable kernel,
            # so the generic path is a formality.
            chans = g.chans
            brs = [BatchResult(e) for e in ems_list]
            if len(chans) == 1:
                ch0 = chans[0]
                il0 = inputs[g.cports[0]]
                for i, oi in enumerate(g.op_indices):
                    prepared[oi] = (brs[i], commit, i, ((ch0, il0[i]),))
            elif len(chans) == 2:
                ch0, ch1 = chans
                il0 = inputs[g.cports[0]]
                il1 = inputs[g.cports[1]]
                for i, oi in enumerate(g.op_indices):
                    prepared[oi] = (
                        brs[i], commit, i,
                        ((ch0, il0[i]), (ch1, il1[i])),
                    )
            else:
                ils = [inputs[p] for p in g.cports]
                for i, oi in enumerate(g.op_indices):
                    prepared[oi] = (
                        brs[i], commit, i,
                        tuple((c, il[i]) for c, il in zip(chans, ils)),
                    )
        if len(dead) == len(self.groups):
            return None
        return prepared


def _translate(ref, op_to_group):
    if ref is None:
        return None
    tag = ref[0]
    if tag == "s":
        return (0, ref[1], ref[2])
    if tag == "c":
        return (1, ref[1], ref[2])
    gi = op_to_group.get(ref[1])
    if gi is None:
        return None
    return (2, gi[0], gi[1], ref[2])


def compile_batch_plan(xplan) -> BatchPlan | None:
    """Symbolically execute ``xplan`` and group its batchable firings.

    Returns ``None`` when nothing in the period batches.  Op codes and
    layouts are :mod:`.plan`'s.
    """
    # The completion carried across the period boundary is always the
    # kernel's *last* EXEC of the (periodic) plan, so its emission
    # signature names what a leading FINISH-without-EXEC delivers.
    last_esig: dict = {}
    for op in xplan:
        if op[0] == OP_EXEC:
            last_esig[op[1]] = op[X_ESIG]

    produced: dict[int, list] = {}   # channel id -> refs, in push order
    chan: dict[int, object] = {}
    poisoned: set[int] = set()       # channels with unknowable push counts
    pops: dict[int, int] = {}
    cand: dict = {}                  # st -> [(op_idx, firing, esig, slots)]
    others: dict = {}                # st -> non-candidate method names
    pending: dict = {}               # st -> (origin op index | None, esig)
    src_count: dict = {}

    def record_pops(st, cports):
        slots = []
        rin = st.rk.inputs
        for port in cports:
            ch = rin.get(port)
            if ch is None:
                return None
            cid = id(ch)
            chan[cid] = ch
            k = pops.get(cid, 0)
            pops[cid] = k + 1
            slots.append((cid, k))
        return slots

    def push(st, port, ref):
        for ch, _dst, _chk in st.out.get(port, ()):
            cid = id(ch)
            chan[cid] = ch
            produced.setdefault(cid, []).append(ref)

    for oi, op in enumerate(xplan):
        code = op[0]
        if code == OP_EXEC:
            st = op[1]
            firing = op[X_FIRING]
            esig = op[X_ESIG]
            if firing is not None:
                slots = record_pops(st, firing.consume_ports)
                if slots is None:
                    cand.pop(st, None)
                    others.setdefault(st, set()).add("<unwired>")
                else:
                    cand.setdefault(st, []).append((oi, firing, esig, slots))
                pending[st] = (oi, esig)
            else:
                rebuild = op[X_REBUILD]
                record_pops(st, rebuild[2])
                if rebuild[0] == "token" and rebuild[1] is not None:
                    others.setdefault(st, set()).add(rebuild[1].name)
                else:
                    others.setdefault(st, set()).add(FORWARD_OTHER)
                pending[st] = (None, esig)
        elif code == OP_FIN:
            st = op[1]
            if st in pending:
                origin, esig = pending.pop(st)
            else:
                origin = -1
                esig = last_esig.get(st)
                if esig is None:
                    for chans in st.out.values():
                        for ch, _d, _c in chans:
                            poisoned.add(id(ch))
                    continue
            for e in range(0, len(esig), 2):
                if origin is None:
                    ref = None  # token/forward values exist only mid-walk
                elif origin == -1:
                    ref = ("c", st, e >> 1)
                else:
                    ref = ("x", origin, e >> 1)
                push(st, esig[e], ref)
        elif code == OP_SRC:
            src = op[1]
            base_k = src_count.get(src, 0)
            st = src.st
            for j in range(op[2]):
                push(st, "out", ("s", src, base_k + j))
            src_count[src] = base_k + op[2]
        elif code == OP_IO:
            st = op[1]
            for firing, rebuild, esig, _nemit, _nout in op[2]:
                cports = (
                    firing.consume_ports if firing is not None else rebuild[2]
                )
                record_pops(st, cports)
                for e in range(0, len(esig), 2):
                    push(st, esig[e], None)

    # ------------------------------------------------------------------
    # Candidate groups: one frozen data firing per kernel, data-only
    # emissions, and the kernel accepting its in-period company.
    # ------------------------------------------------------------------
    groups: dict = {}
    for st, ops_list in cand.items():
        f0 = ops_list[0][1]
        if f0.method is None or any(o[1] is not f0 for o in ops_list):
            continue
        bad = False
        for _oi, _f, esig, _slots in ops_list:
            for e in range(1, len(esig), 2):
                if esig[e]:
                    bad = True
                    break
            if bad:
                break
        if bad:
            continue
        oset = frozenset(others.get(st, ()))
        try:
            accepted = st.rk.kernel.batch_accepts(f0.method.name, oset)
        except Exception:
            accepted = False
        if accepted:
            groups[st] = ops_list

    # ------------------------------------------------------------------
    # Ordering: drop groups reading poisoned channels, then topologically
    # sort the rest by which *surviving* group pushed into each consumed
    # channel's prefix (period-start occupancy shifts which push lands in
    # which slot, so the whole prefix is a conservative dependency set).
    # Unresolvable prefix entries — opaque token pushes, non-batched
    # producers — do NOT drop the group here: prepare() sees the real
    # occupancy and prunes only groups whose *needed* slot is opaque.
    # A dependency cycle drops its members and retries the sort.
    # ------------------------------------------------------------------
    for st in list(groups):
        if any(
            cid in poisoned
            for _oi, _f, _esig, slots in groups[st]
            for cid, _k in slots
        ):
            del groups[st]
    order: list = []
    while True:
        if not groups:
            return None
        deps_map: dict = {}
        for st in groups:
            deps = set()
            for _oi, _f, _esig, slots in groups[st]:
                for cid, k in slots:
                    for ref in produced.get(cid, ())[: k + 1]:
                        if ref is not None and ref[0] == "x":
                            pst = xplan[ref[1]][1]
                            if pst is not st and pst in groups:
                                deps.add(pst)
            deps_map[st] = deps
        indeg = {st: len(deps_map[st]) for st in groups}
        rdeps: dict = {st: [] for st in groups}
        for st, deps in deps_map.items():
            for d in deps:
                rdeps[d].append(st)
        queue = [st for st in groups if indeg[st] == 0]
        order = []
        while queue:
            st = queue.pop()
            order.append(st)
            for c in rdeps[st]:
                indeg[c] -= 1
                if indeg[c] == 0:
                    queue.append(c)
        if len(order) == len(groups):
            break
        for st in [s for s in groups if indeg[s] > 0]:
            del groups[st]

    # ------------------------------------------------------------------
    # Finalize: producers before consumers, refs translated to direct
    # (source buffer | carried completion | group result) indices.
    # ------------------------------------------------------------------
    op_to_group: dict[int, tuple[int, int]] = {}
    for gid, st in enumerate(order):
        for i, (oi, _f, _esig, _slots) in enumerate(groups[st]):
            op_to_group[oi] = (gid, i)

    plan_groups = []
    kernel_names = []
    for st in order:
        ops_list = groups[st]
        f0 = ops_list[0][1]
        kernel = st.rk.kernel
        cports = f0.consume_ports
        ports = []
        for j, port in enumerate(cports):
            cid = ops_list[0][3][j][0]
            ks = [o[3][j][1] for o in ops_list]
            spec = kernel.input_spec(port)
            refs = tuple(
                _translate(r, op_to_group)
                for r in produced.get(cid, ())[: max(ks) + 1]
            )
            ports.append(
                (port, chan[cid], ks, (spec.window.h, spec.window.w), refs)
            )
        g = _Group()
        g.kernel = kernel
        g.method = f0.method.name
        g.n = len(ops_list)
        g.op_indices = [o[0] for o in ops_list]
        g.cports = cports
        g.ports = tuple(ports)
        g.chans = tuple(p[1] for p in ports)
        g.exp_counts = [len(o[2]) // 2 for o in ops_list]
        g.exp_ports = [o[2][0::2] for o in ops_list]
        plan_groups.append(g)
        kernel_names.append(st.name)

    plan = BatchPlan()
    plan.groups = tuple(plan_groups)
    plan.plan_len = len(xplan)
    plan.kernel_names = tuple(kernel_names)
    plan.dead = set()
    return plan
