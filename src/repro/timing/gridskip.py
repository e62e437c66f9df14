"""Periodic steady-state fast-forward for the grid scheduler.

Media traces are unrolled loops: long stretches of the decoded row
stream repeat exactly, and once the pipeline's resources reach a
periodic steady state, every further iteration of the loop computes
the same schedule as the previous one shifted by a constant number of
cycles.  The lean scheduler's recurrence makes that exploitable
*exactly*: every operation on cycle values is ``max`` or ``+``, so the
whole transition function is shift-equivariant — if the (canonicalized)
resource state at two anchor points is identical up to a uniform shift
``delta`` and the trace/traffic inputs between them repeat, then each
further repetition advances the state by exactly ``delta`` again.

:class:`_SkipState` implements that as an opportunistic detector:

* **Anchors.**  A recurring decoded row is chosen per trace and its
  (decimated) occurrences are flagged.  At each flagged instruction the
  scheduler state is *canonicalized* — every cycle value is expressed
  relative to the dispatch floor and every provably dead component
  (values at or below the floor can never win a future ``max``) is
  clamped or pruned — and looked up in a table of prior anchors.

* **Verification.**  A state match at distance ``p`` only licenses a
  skip if everything the transition function reads between the two
  anchors repeats: decoded rows and vector lengths (shared, per
  trace), limiter gate structure (per processor, position-relative),
  memory-path streams, per-reference L1 latencies (per config), and
  the store→load conflict pattern (position-relative source sets).
  The comparison extends over as many further whole periods as match
  (one vectorized reshape per array), so a verified steady state
  fast-forwards the remaining iterations in one step.

* **Materialization.**  The skip shifts every live cycle value by
  ``k * delta`` and rebuilds the retire/pointer history entries the
  remaining instructions will read from the simulated base period.

No match means no skip: the scheduler simply keeps walking, so the
fast-forward can only ever reproduce what the instruction-by-instruction
walk would have computed (``tests/test_timing_differential.py`` and the
grid property suite pin this bit-for-bit).
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

from repro.timing.predecode import KIND_MEM, _program_memo

#: Anchor cadence bounds: decimate denser groups, ignore sparser rows.
_MIN_SPACING_FLOOR = 64
_MAX_ANCHORS = 256
_MAX_SPACING = 4096
#: At most this many phase groups and anchors per group.
_MAX_PHASES = 8
_MAX_GROUP_ANCHORS = 48
#: The skip-span bound, in memory ordinals.  One bound serves three
#: cooperating roles (see :meth:`_SkipState._verify` for the exactness
#: argument): each skip is capped to this many ordinals, the
#: store→load conflict pattern tracks sources this far back (an
#: in-span load's in-span sources can never be further), and the
#: anchor capture pins the value of every conflict gate with a reader
#: inside this horizon (which covers every in-span load that could
#: read a *pre*-anchor gate).  Conflicts at larger distances are
#: unobservable inside a span: their gate values ride the pinned
#: capture key and the exact landing translation instead.  A deeper
#: horizon only makes the pattern arrays longer and the periodicity
#: requirement stricter.
_SKIP_HORIZON = 1024


# -- shared (per-trace / per-proc / per-geometry) tables ---------------------


def _skip_core(program, core):
    """Row identity, ordinal and anchor tables for one trace (memoized)."""
    memo = _program_memo(program)
    tables = memo.get("grid-skip-core")
    if tables is not None:
        return tables
    rows = core.rows
    n = core.n
    # The core decode interns its rows by value, so object identity is
    # row identity: number the distinct rows in order of appearance
    # without hashing the tuples.
    ids: dict[int, int] = {}
    rowid = np.fromiter((ids.setdefault(id(row), len(ids)) for row in rows),
                        dtype=np.int64, count=n)

    # ordinals: memory instructions and pointer admissions before i
    kinds = core.kind_arr
    memord = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(kinds == KIND_MEM, out=memord[1:])
    is_ptr = np.fromiter((1 if rows[i][8] else 0 for i in range(n)),
                         dtype=np.int64, count=n)
    ptrord = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(is_ptr, out=ptrord[1:])

    # phase digest: a rolling window of upcoming row ids, to keep
    # anchors from colliding across unrelated trace phases
    pdg = np.zeros(n, dtype=np.int64)
    if n:
        acc = np.zeros(n, dtype=np.int64)
        for off in range(8):
            shifted = rowid[off:] if off else rowid
            acc[:n - off] = acc[:n - off] * 1000003 + shifted
        pdg = acc

    # anchors: the most frequent row with an acceptable cadence.  Its
    # occurrences are grouped by *phase* (the upcoming-row digest) so
    # that consecutive anchors of one group sit at the same loop
    # offset — one group per recurring phase, each decimated to the
    # target spacing.  Distinct trace sections (a DCT loop followed by
    # a quantization loop, say) contribute their own anchor groups.
    anchors = None
    if n:
        min_spacing = max(_MIN_SPACING_FLOOR, n // _MAX_ANCHORS)
        counts = np.bincount(rowid)
        candidates = np.nonzero(counts >= 3)[0]
        best = None
        for rid in candidates:
            spacing = n / counts[rid]
            if spacing > _MAX_SPACING:
                continue
            if best is None or counts[rid] > counts[best]:
                best = rid
        if best is not None:
            positions = np.nonzero(rowid == best)[0]
            phases = pdg[positions]
            values, phase_counts = np.unique(phases,
                                             return_counts=True)
            # top phases only, each capped: anchor visits cost real
            # capture work, so bound them independently of how many
            # distinct phases the trace cycles through
            order = np.argsort(phase_counts)[::-1][:_MAX_PHASES]
            anchors = bytearray(n)
            any_set = False
            budget = max(12, n // min_spacing)
            for idx in order.tolist():
                if phase_counts[idx] < 3 or budget <= 0:
                    continue
                group = positions[phases == values[idx]]
                span = int(group[-1]) - int(group[0])
                if span <= 0:
                    continue
                spacing = span / (len(group) - 1)
                step = 1
                if spacing < min_spacing:
                    step = int(np.ceil(min_spacing / spacing))
                if len(group) > step * _MAX_GROUP_ANCHORS:
                    step = -(-len(group) // _MAX_GROUP_ANCHORS)
                group = group[::step]
                if len(group) < 3:
                    continue
                group = group[:budget]
                if len(group) < 3:
                    continue
                budget -= len(group)
                for pos in group.tolist():
                    anchors[pos] = 1
                    any_set = True
            if not any_set:
                anchors = None

    positions_list = ([k for k, flag in enumerate(anchors) if flag]
                      if anchors is not None else None)
    tables = (rowid, memord, ptrord, anchors, positions_list, pdg)
    memo["grid-skip-core"] = tables
    return tables


def _skip_gates(program, gates, ptrord, proc):
    """Position-relative gate tables for one capacity profile."""
    key = ("grid-skip-gates", proc.window, proc.lsq,
           proc.extra_vector_regs, proc.extra_d3_regs,
           proc.extra_ptr_regs)
    memo = _program_memo(program)
    tables = memo.get(key)
    if tables is not None:
        return tables
    gidx = np.asarray(gates.gidx, dtype=np.int64)
    n = len(gidx)
    grel = gidx - np.arange(n, dtype=np.int64)
    grel[gidx < 0] = np.iinfo(np.int64).min  # ungated marker
    pidx = np.asarray(gates.ptr_gidx, dtype=np.int64)
    prel = pidx - ptrord[:n]
    prel[pidx < 0] = np.iinfo(np.int64).min
    tables = (grel, prel)
    memo[key] = tables
    return tables


def _skip_store_pattern(program, d, l2_line: int):
    """Store→load conflict structure, position-relative (memoized).

    For every memory instruction: the set of earlier stores whose
    touched L2 lines overlap its own, encoded as distances in memory
    ordinals (``counts`` + flattened ``srcs``).  Equality of these
    arrays across two trace segments means the store-gating dict reads
    and writes follow the identical pattern, which is what makes the
    conflict gates shift-equivariant across iterations even though the
    absolute line addresses differ.  The touched-line sets are a pure
    function of the trace and the L2 line size, so the tables are
    shared by every configuration with that line size.

    Sources are tracked within the :data:`_SKIP_HORIZON` lookback only
    (the per-line buckets are age-pruned as they are read).  Exactness
    survives the truncation because every skip is bounded so that any
    in-span store→load conflict distance stays inside the window (see
    :meth:`_SkipState._verify`); gates older than that are pinned by
    the anchor state capture and reconstructed by the gate
    translation instead.
    """
    memo = _program_memo(program)
    key = ("grid-skip-store", l2_line)
    tables = memo.get(key)
    if tables is not None:
        return tables
    by_line: dict[int, list[int]] = {}
    counts: list[int] = []
    srcs: list[int] = []
    m = 0
    for i, (_to_l1, _request, lines, is_store) in d.mem.items():
        oldest = m - _SKIP_HORIZON
        if is_store:
            counts.append(0)
            for line in lines:
                by_line.setdefault(line, []).append(m)
        else:
            sources: set[int] = set()
            for line in lines:
                bucket = by_line.get(line)
                if bucket:
                    while bucket and bucket[0] < oldest:
                        bucket.pop(0)
                    sources.update(bucket)
            counts.append(len(sources))
            srcs.extend(m - s for s in sorted(sources))
        m += 1
    tables = (np.asarray(counts, dtype=np.int64),
              np.asarray(srcs, dtype=np.int64),
              _offsets_from_counts(counts))
    memo[key] = tables
    return tables


def _offsets_from_counts(counts) -> np.ndarray:
    sizes = [c if c > 0 else 0 for c in counts]
    off = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, out=off[1:])
    return off


def _lead_run(base: np.ndarray, tail: np.ndarray, period: int,
              kcap: int) -> int:
    """How many leading whole periods of ``tail`` equal ``base``.

    Staged: the first period is compared on its own, so the common
    failure case (a candidate period that does not actually repeat)
    costs O(period), not a reshape-compare of the whole tail.
    """
    if period == 0 or kcap <= 0:
        return kcap
    kcap = min(kcap, len(tail) // period)
    if kcap <= 0:
        return 0
    if not np.array_equal(tail[:period], base):
        return 0
    if kcap == 1:
        return 1
    view = tail[:kcap * period].reshape(kcap, period)
    eq = (view == base).all(axis=1)
    bad = np.nonzero(~eq)[0]
    return int(bad[0]) if len(bad) else kcap


# -- the runtime skip state --------------------------------------------------


class _SkipState:
    """Per-run anchor table + fast-forward executor for one config."""

    #: give up probing a *phase* after this many of its anchor visits
    #: without a successful skip — patience is per phase digest, so one
    #: non-recurring trace section (a prologue, a ragged tail) cannot
    #: poison skipping for the periodic sections around it
    _PATIENCE = 64
    #: recent same-cheap-key candidates kept per key: the true period
    #: may be several near-misses long, so a match must be attempted
    #: against more than just the immediately preceding occurrence
    _CANDIDATES = 5

    def __init__(self, core, proc, rowid, memord, ptrord, anchors,
                 positions, pdg, grel, prel, scounts, ssrcs, soff,
                 traffic, last_load, readers, writers, gate_lines):
        self.n = core.n
        self.window = proc.window
        self.ptr_cap = proc.extra_ptr_regs
        self.last_load = last_load
        self.readers = readers
        self.writers = writers
        self.gate_lines = gate_lines
        #: mem-ordinal -> complete cycle of every store the walk has
        #: executed; read back by the gate translation to reconstruct
        #: the landed conflict gates from the base period's schedule
        self.store_completes: dict[int, int] = {}
        self.vl = core.vl_arr
        self.rowid = rowid
        self.memord = memord
        self.ptrord = ptrord
        self.anchor_flags = anchors
        self.anchor_positions = positions
        self.pdg = pdg
        self.grel = grel
        self.prel = prel
        self.scounts = scounts
        self.ssrcs = ssrcs
        self.soff = soff
        self.traffic = traffic
        self._arrays = None
        #: cheap-key -> [i, base, full-key-or-None]; the full canonical
        #: state is only captured once a cheap key recurs, so anchors
        #: in non-repeating regions cost a dozen integer ops
        self.seen: dict[tuple, list] = {}
        self.visits = 0
        self.hits = 0
        self.miss_by_phase: dict[int, int] = {}
        self.dead_phases: set[int] = set()

    def _config_arrays(self):
        """Per-config stream arrays for segment verification (lazy)."""
        arrays = self._arrays
        if arrays is None:
            traffic = self.traffic
            ref_off = np.asarray(traffic.ref_off, dtype=np.int64)
            arrays = self._arrays = (
                np.asarray(traffic.kinds, dtype=np.int64),
                np.asarray(traffic.stores, dtype=np.int64),
                np.asarray(traffic.busy, dtype=np.int64),
                np.asarray(traffic.offset, dtype=np.int64),
                ref_off[1:] - ref_off[:-1],
                ref_off,
                np.asarray(traffic.ref_lat, dtype=np.int64),
            )
        return arrays

    # -- canonical state capture -------------------------------------------

    def _capture(self, i, m, base, fetch_cycle, fetch_in_use,
                 retire_cycle, retire_in_use, fetch_min, last_retire,
                 int_used, simd_used, mem_used, l1_used, l1_scan,
                 int_free, simd_free, d3_free, vec_free, sb,
                 store_lines, retire_hist, ptr_hist) -> tuple:
        floor = base + 1

        def dict_key(used):
            dead = [k for k, v in used.items() if k < floor or v == 0]
            for k in dead:
                del used[k]
            return tuple(sorted((k - base, v) for k, v in used.items()))

        # a store gate is dead once its cycle cannot beat any future
        # operand-ready floor, or once no remaining load reads its line
        last_load = self.last_load
        dead_stores = [k for k, v in store_lines.items()
                       if v <= floor or last_load.get(k, -1) < m]
        for k in dead_stores:
            del store_lines[k]
        # live gates are canonicalized by which future accesses will
        # observe them (reader/writer ordinal distances), not by the
        # absolute line address — iteration k's output line and
        # iteration k+1's are different addresses with the same role.
        # Tails are truncated at the maximum skip distance: an access
        # further out happens after any licensed skip has landed, where
        # the translated gate dict (not this key) governs it.
        horizon = _SKIP_HORIZON
        store_key = []
        for line, v in store_lines.items():
            rd = self.readers.get(line, ())
            wr = self.writers.get(line, ())
            ri = bisect_left(rd, m)
            wi = bisect_left(wr, m)
            re = bisect_left(rd, m + horizon, ri)
            if re == ri:
                # no load inside any licensed skip span reads this
                # line, so its value cannot influence the span's
                # schedule — it only has to *translate* at landing,
                # which works from the live value, not this key
                continue
            we = bisect_left(wr, m + horizon, wi)
            store_key.append(
                (tuple(x - m for x in rd[ri:re]),
                 tuple(x - m for x in wr[wi:we]), v - base))
        store_key.sort(key=repr)

        # every instruction from ``i`` on reads retire gates at indices
        # >= its own position minus the window capacity (the window
        # component of the combined gate dominates the lookback), so
        # the last ``window`` retire entries are the live history
        harr = np.array(retire_hist[i - self.window:i], dtype=np.int64)
        np.maximum(harr, base, out=harr)
        harr -= base
        hist = harr.tobytes()
        p_ord = int(self.ptrord[i])
        p_lo = max(0, p_ord - self.ptr_cap)
        phist = tuple(v - base if v > base else 0
                      for v in ptr_hist[p_lo:p_ord])
        sarr = np.array(sb, dtype=np.int64)
        np.maximum(sarr, floor, out=sarr)
        sarr -= base
        sb_key = sarr.tobytes()

        return (
            int(self.pdg[i]),
            fetch_cycle - base if fetch_cycle >= base else -1,
            fetch_in_use if fetch_cycle >= base else 0,
            retire_cycle - base, retire_in_use,
            fetch_min - base if fetch_min > base else 0,
            last_retire - base if last_retire > base else 0,
            dict_key(int_used), dict_key(simd_used),
            dict_key(mem_used), dict_key(l1_used),
            # the L1 scan floor is inert while at or below the dispatch
            # floor (claims start at ready > floor); its 4096-cycle
            # trigger is shift-equivariant and the scheduler disables
            # skipping should the floor ever go live
            l1_scan - base if l1_scan > floor else 0,
            tuple(sorted((v - base if v > floor else 1)
                         for v in int_free)),
            tuple(sorted((v - base if v > floor else 1)
                         for v in simd_free)),
            d3_free - base if d3_free > floor else 1,
            vec_free - base if vec_free > floor else 1,
            sb_key,
            tuple(store_key),
            hist, phist,
        )

    # -- verification + extension ------------------------------------------

    def _verify(self, i1: int, i2: int) -> int:
        """Whole matching periods from ``i2`` on (0 = no skip)."""
        p = i2 - i1
        n = self.n
        kcap = (n - i2) // p
        if kcap <= 0:
            return 0
        k = _lead_run(self.rowid[i1:i2], self.rowid[i2:], p, kcap)
        if k <= 0:
            return 0
        k = min(k, _lead_run(self.vl[i1:i2], self.vl[i2:], p, k))
        if k <= 0:
            return 0
        k = min(k, _lead_run(self.grel[i1:i2], self.grel[i2:], p, k))
        if k <= 0:
            return 0
        k = min(k, _lead_run(self.prel[i1:i2], self.prel[i2:], p, k))
        if k <= 0:
            return 0
        m1 = int(self.memord[i1])
        m2 = int(self.memord[i2])
        pm = m2 - m1
        if pm:
            # Keep every in-span store→load conflict distance inside
            # the tracked window: sources reach back at most one period
            # past a load's own period start, so k*pm <= window/2 (with
            # pm itself <= window/2) guarantees the pattern arrays
            # verified below cover every gate the span can read that
            # the anchor capture did not already pin.
            if pm > _SKIP_HORIZON:
                return 0
            k = min(k, max(1, _SKIP_HORIZON // pm))
            (mk, mstore, mbusy, moffset, refcnt, ref_off,
             ref_lat) = self._config_arrays()
            for arr in (mk, mstore, mbusy, moffset, refcnt,
                        self.scounts):
                k = min(k, _lead_run(arr[m1:m2], arr[m2:], pm, k))
                if k <= 0:
                    return 0
            r1 = int(ref_off[m1])
            r2 = int(ref_off[m2])
            pr = r2 - r1
            if pr:
                k = min(k, _lead_run(ref_lat[r1:r2],
                                     ref_lat[r2:], pr, k))
                if k <= 0:
                    return 0
            s1 = int(self.soff[m1])
            s2 = int(self.soff[m2])
            ps = s2 - s1
            if ps:
                k = min(k, _lead_run(self.ssrcs[s1:s2],
                                     self.ssrcs[s2:], ps, k))
        return k


    def _translate_store_gates(self, store_lines, m, pm, k, delta):
        """Reconstruct the landed conflict-gate dict exactly, or None.

        The sequential walk's gate on a line at the landing is the max
        of (a) its value entering the span — the current entry, any
        pruned-dead components being unobservable by construction —
        and (b) the completes of the span's gate-recording stores on
        that line.  The verified equivariance pins every in-span
        store's complete to its base-period image::

            complete(s0 + (j + 1) * pm) == complete(s0) + (j + 1) * delta

        for ``s0`` in the base period ``[m - pm, m)``, whose actual
        completes the walk retained in :attr:`store_completes` (and a
        chained skip re-materializes at its landing, below).  The
        landed dict is therefore computed directly — no structural
        case analysis, and the only veto is a missing base complete
        (a base-period ordinal that was never walked as a store while
        its in-span image records a gate).
        """
        translated = dict(store_lines)
        if pm == 0 or k <= 0:
            return translated
        new_m = m + k * pm
        shift = k * delta
        completes = self.store_completes
        gate_lines = self.gate_lines
        for s in range(m, new_m):
            lines = gate_lines[s]
            if not lines:
                continue
            c0 = completes.get(m - pm + (s - m) % pm)
            if c0 is None:
                return None
            w = c0 + ((s - m) // pm + 1) * delta
            for line in lines:
                if w > translated.get(line, 0):
                    translated[line] = w
        # Keep the chain alive: the landing's preceding period was
        # skipped, not walked, so its completes are materialized from
        # the base period's — the next link's base period is this one.
        for r in range(pm):
            c0 = completes.get(m - pm + r)
            if c0 is not None:
                completes[new_m - pm + r] = c0 + shift
        return translated

    def _miss(self, phase: int) -> None:
        misses = self.miss_by_phase.get(phase, 0) + 1
        self.miss_by_phase[phase] = misses
        if misses > self._PATIENCE:
            self.dead_phases.add(phase)
        return None

    # -- the entry point called from the scheduler loop --------------------

    def visit(self, i, m, p_ord, dispatch_min, fetch_cycle, fetch_in_use,
              retire_cycle, retire_in_use, fetch_min, last_retire,
              int_used, simd_used, mem_used, l1_used, l1_scan,
              int_free, simd_free, d3_free, vec_free, sb,
              store_lines, store_max, retire_hist, ptr_hist):
        if i < self.window:
            # the window-capped history argument needs the graduation
            # window component live for every remaining instruction
            return None
        phase = int(self.pdg[i])
        if phase in self.dead_phases:
            # this phase's patience ran out with no skips — stop
            # paying for its captures; other phases probe on
            return None
        self.visits += 1
        base = dispatch_min
        floor = base + 1
        cheap = (
            phase,
            fetch_cycle - base if fetch_cycle >= base else -1,
            fetch_in_use if fetch_cycle >= base else 0,
            retire_cycle - base, retire_in_use,
            fetch_min - base if fetch_min > base else 0,
            last_retire - base if last_retire > base else 0,
            l1_scan - base if l1_scan > floor else 0,
            d3_free - base if d3_free > floor else 1,
            vec_free - base if vec_free > floor else 1,
        )
        candidates = self.seen.get(cheap)
        if candidates is None:
            if len(self.seen) > 256:
                self.seen.clear()
            self.seen[cheap] = [(i, base, None)]
            return self._miss(phase)
        # Prefix gate: the full canonical capture (and the verify that
        # may follow) is only worth paying against a candidate whose
        # upcoming rows actually repeat.  A parked key-less candidate
        # costs nothing and behaves exactly like a first visit: the
        # *next* same-prefix anchor captures against it, so no match
        # is ever delayed, while anchors in aperiodic stretches fall
        # through here for the price of one short array compare.
        rowid = self.rowid
        pref = rowid[i:i + 64]
        live = [c for c in candidates
                if np.array_equal(rowid[c[0]:c[0] + 64], pref)]
        if not live:
            candidates.insert(0, (i, base, None))
            del candidates[self._CANDIDATES:]
            return self._miss(phase)
        key = self._capture(
            i, m, base, fetch_cycle, fetch_in_use, retire_cycle,
            retire_in_use, fetch_min, last_retire, int_used, simd_used,
            mem_used, l1_used, l1_scan, int_free, simd_free, d3_free,
            vec_free, sb, store_lines, retire_hist, ptr_hist)
        match = None
        for i1, base1, key1 in live:
            if key1 is not None and key1 == key and i1 < i:
                k = self._verify(i1, i)
                if k > 0:
                    match = (i1, base1, k)
                    break
        candidates.insert(0, (i, base, key))
        del candidates[self._CANDIDATES:]
        if match is None:
            return self._miss(phase)
        i1, base1, k = match
        # live conflict gates must be translatable onto the landed
        # position before anything is mutated; an untranslatable gate
        # vetoes the skip (exactness first, speed second)
        translated = self._translate_store_gates(
            store_lines, m,
            int(self.memord[i]) - int(self.memord[i1]), k,
            base - base1)
        if translated is None:
            return self._miss(phase)
        self.hits += 1
        self.miss_by_phase[phase] = 0

        # fast-forward k whole periods
        p = i - i1
        delta = base - base1
        shift = k * delta
        new_i = i + k * p
        # Seed the chain's next link: the anchor one period before the
        # landing was skipped over, but its canonical key provably
        # equals this one (the canonicalization is base-relative and
        # the verified equivariance shifts its state by a uniform
        # (k-1)*delta).  Without this entry the next visit could only
        # match at the full skip distance, demanding a period the
        # remaining trace can no longer repeat.
        if k > 1:
            candidates.insert(0, (new_i - p, base + (k - 1) * delta,
                                  key))
            del candidates[self._CANDIDATES:]
        new_m = m + k * (int(self.memord[i]) - int(self.memord[i1]))
        pp = int(self.ptrord[i]) - int(self.ptrord[i1])
        new_p_ord = p_ord + k * pp

        sb[:] = [v + shift for v in sb]
        for used in (int_used, simd_used, mem_used, l1_used):
            shifted = {kk + shift: v for kk, v in used.items()}
            used.clear()
            used.update(shifted)
        int_free[:] = [v + shift for v in int_free]
        simd_free[:] = [v + shift for v in simd_free]
        if translated is not None and store_lines:
            store_lines.clear()
            store_lines.update(translated)

        # rebuild the history windows the remaining trace will read
        for idx in range(max(i, new_i - self.window), new_i):
            src = i1 + (idx - i1) % p
            retire_hist[idx] = retire_hist[src] + ((idx - i1) // p) * delta
        if pp:
            p1 = int(self.ptrord[i1])
            for ordn in range(max(p1, new_p_ord - self.ptr_cap),
                              new_p_ord):
                src = p1 + (ordn - p1) % pp
                ptr_hist[ordn] = ptr_hist[src] + ((ordn - p1) // pp) * delta

        return (new_i, new_m, new_p_ord,
                fetch_cycle + shift, fetch_in_use,
                retire_cycle + shift, retire_in_use,
                fetch_min + shift, dispatch_min + shift,
                last_retire + shift, l1_scan + shift,
                d3_free + shift, vec_free + shift,
                store_max + shift)


def _skip_state_for(program, d, proc, memsys, gates, traffic,
                    last_load, readers, writers, gate_lines):
    """Build a skip state for one config's run (shared parts memoized).

    ``gates`` is the caller's :class:`~repro.timing.grid._GateTables`
    for this trace/processor (already computed for the lean walk).
    """
    core = d.core
    if core.n < max(4 * _MIN_SPACING_FLOOR, 2 * proc.window):
        return None
    rowid, memord, ptrord, anchors, positions, pdg = \
        _skip_core(program, core)
    if anchors is None:
        return None
    grel, prel = _skip_gates(program, gates, ptrord, proc)
    scounts, ssrcs, soff = _skip_store_pattern(
        program, d, memsys.hierarchy.l2_line)
    return _SkipState(core, proc, rowid, memord, ptrord, anchors,
                      positions, pdg, grel, prel, scounts, ssrcs, soff,
                      traffic, last_load, readers, writers, gate_lines)
