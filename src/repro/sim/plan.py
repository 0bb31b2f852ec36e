"""Op vocabulary of the period plan: what the event loop reports, what
the replay recorder keeps, and what the period executor walks.

One code per thing an event can turn out to be.  The event loop in
:mod:`.simulator` names the code at each record point, the recorder in
:mod:`.replay` stores *raw ops* ``(code, rel, subject, ...)`` — ``rel``
is the time relation to the previous event, 0 same / 1 strictly later —
and ``build_xplan`` compiles a locked period of them into *plan ops*,
which the period executor and :mod:`.batch` read.  Consecutive no-op
polls (OP_RUN, OP_EMPTY, OP_PARK) never stand alone in a plan: they
collapse into one OP_POLLS.  Plan-op layouts:

=========  =============================================================
code       plan op
=========  =============================================================
OP_SRC     ``(code, source, count, rel)`` — one source's timestamp batch
OP_FIN     ``(code, st, rel)`` — a firing completes and emits
OP_EXEC    the ``X_*`` fields below — a firing starts on an element
OP_IO      ``(code, st, ((firing, rebuild, esig, nemit, nout), ...))``
           — an off-chip boundary kernel drains instantly
OP_POLLS   ``(code, ((sub, st, ps|None, events-before), ...))`` — a run
           of no-op polls, each sub-entry verified on its own: OP_RUN
           (kernel already running), OP_EMPTY (nothing ready) or
           OP_PARK (parked behind busy element ``ps``)
=========  =============================================================
"""

from __future__ import annotations

(OP_SRC, OP_FIN, OP_RUN, OP_EMPTY, OP_PARK, OP_EXEC, OP_IO,
 OP_POLLS) = range(8)

# OP_EXEC plan-op fields, in tuple order: who fires where, the frozen
# Firing (or the descriptor to rebuild a token firing from the live
# channel head), the precomputed time charges, and the cost/emission
# signature every replayed firing is verified against.
(X_CODE, X_ST, X_PS, X_FIRING, X_REBUILD, X_READ_S, X_RUN_S, X_WRITE_S,
 X_DURATION, X_CYCLES, X_EREAD, X_EWRIT, X_ESIG, X_NEMIT) = range(14)

# What the recorder answers at a record point (anything falsy: carry
# on): offer the next pop to the period executor, or stop recording.
REC_ENTER, REC_OFF = 1, 2
