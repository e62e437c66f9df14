"""Spec execution: resolving a RunSpec into one simulation.

This module owns the mapping from a :class:`~repro.engine.keys.RunSpec`
to concrete simulator objects (processor config, memory system,
workload trace) and the :func:`shard_specs` partitioner that groups
specs sharing a workload trace.  *How* a list of specs is executed —
serially, across a local process pool, or on remote workers — is the
job of :mod:`repro.engine.backends`.  The timing pipelines are imported
where a spec is simulated, so resolving a warm cache loads none.

Backends ship results around as ``RunStats.to_dict`` payloads — the
same lossless form the disk cache stores — so parallel execution is
bit-identical to serial execution by construction (each simulation is
deterministic and independent).  Each process memoizes built
workloads, so a grid over many memory systems/latencies builds each
``(benchmark, coding, seed)`` trace only once per process.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import fields, replace
from pathlib import Path
from typing import get_type_hints

from repro.engine.keys import RunSpec
from repro.errors import ConfigError
from repro.memsys.hierarchy import HierarchyConfig
from repro.timing import (
    MEMSYSTEMS,
    MemSysConfig,
    PROCESSORS,
    ProcessorConfig,
    RunStats,
)
from repro.workloads import BuiltWorkload, get_benchmark

#: Processor fields that may be overridden per spec.
_PROC_FIELDS = frozenset(
    f.name for f in fields(ProcessorConfig)) - {"name", "isa"}
#: Hierarchy fields that may be overridden (the L2 latency is a spec
#: axis, not an override, to keep every grid point uniquely keyed).
_HIER_FIELDS = frozenset(
    f.name for f in fields(HierarchyConfig)) - {"l2_latency"}
#: Memory-system geometry fields that may be overridden.
_MEMSYS_FIELDS = frozenset({"vc_width_words", "mb_ports", "mb_banks"})

#: Declared type per overridable field (for value validation).
_FIELD_TYPES = {
    **{name: hint for name, hint in get_type_hints(ProcessorConfig).items()
       if name in _PROC_FIELDS},
    **{name: hint for name, hint in get_type_hints(HierarchyConfig).items()
       if name in _HIER_FIELDS},
    **{name: hint for name, hint in get_type_hints(MemSysConfig).items()
       if name in _MEMSYS_FIELDS},
}


def _check_value(name: str, value) -> None:
    """Reject override values that mismatch the field's declared type.

    A float for an int field (``simd_lanes=2.5``) would otherwise
    simulate a physically meaningless configuration without complaint.
    """
    declared = _FIELD_TYPES[name]
    if declared is int:
        ok = isinstance(value, int) and not isinstance(value, bool)
    elif declared is float:
        ok = isinstance(value, (int, float)) and not isinstance(value, bool)
    elif declared is bool:
        ok = isinstance(value, bool)
    else:
        ok = isinstance(value, declared)
    if not ok:
        raise ConfigError(
            f"override {name}={value!r} must be of type "
            f"{declared.__name__}")

#: Per-process workload memo (shared by pool workers across tasks),
#: LRU-bounded so long-lived hosts (e.g. an API server over the
#: engine) don't accumulate traces without limit.  The cap comfortably
#: holds one full evaluation grid (5 benchmarks x 3 codings).
#: Guarded by ``_WORKLOADS_LOCK``: the service scheduler runs
#: ``execute_spec`` on concurrent executor threads, and an unguarded
#: ``move_to_end`` could race another thread's LRU eviction.  Builds
#: themselves happen outside the lock (racing threads may both build;
#: first writer wins).
_WORKLOADS: OrderedDict[tuple[str, str, int], BuiltWorkload] = \
    OrderedDict()
_WORKLOAD_MEMO_LIMIT = 16
_WORKLOADS_LOCK = threading.Lock()

#: Benchmark-name prefix marking a saved trace file instead of a
#: generated workload (see :func:`register_trace`).
TRACE_PREFIX = "trace:"

#: Content digest -> trace path, populated by :func:`register_trace`.
#: Process-local; the process backend ships the entries a shard
#: needs to pool workers explicitly (fork *and* spawn start methods),
#: so replays parallelize like any other benchmark.
_TRACE_PATHS: dict[str, str] = {}


def register_trace(path) -> str:
    """Register a saved trace file; returns its spec *benchmark* name.

    The name is ``trace:<content digest>`` — content-addressed, so the
    engine's result cache keys replays by what the trace contains, not
    where it lives: replaying the same bytes from another path (or
    another day) is a cache hit, and editing the file is a miss.
    """
    blob = Path(path).read_bytes()
    digest = hashlib.sha256(blob).hexdigest()[:16]
    name = f"{TRACE_PREFIX}{digest}"
    _TRACE_PATHS[digest] = str(path)
    return name


def _build_trace_workload(benchmark: str, coding: str) -> BuiltWorkload:
    """Load a registered ``trace:<digest>`` benchmark as a workload."""
    from repro.isa.encoding import decode_program
    from repro.vm.memory import FlatMemory

    digest = benchmark[len(TRACE_PREFIX):]
    path = _TRACE_PATHS.get(digest)
    if path is None:
        raise ConfigError(
            f"trace {benchmark!r} is not registered in this process; "
            f"call engine.register_trace(path) first")
    blob = Path(path).read_bytes()
    # Re-hash at load time: if the file changed since registration,
    # simulating the new bytes under the old digest would poison the
    # content-addressed cache.
    actual = hashlib.sha256(blob).hexdigest()[:len(digest)]
    if actual != digest:
        raise ConfigError(
            f"trace file {path} changed since registration (digest "
            f"{actual}, spec expects {digest}); re-register it")
    program = decode_program(blob)
    # Timing-only workload: the replayed program is never executed on
    # the VM, so a token memory and a no-op check suffice.
    return BuiltWorkload(name=benchmark, coding=coding, program=program,
                         memory=FlatMemory(size=8),
                         check=lambda state, memory: None)


def build_workload(benchmark: str, coding: str, seed: int = 0
                   ) -> BuiltWorkload:
    """Build (once per process, LRU-memoized) one benchmark trace."""
    key = (benchmark, coding, seed)
    with _WORKLOADS_LOCK:
        if key in _WORKLOADS:
            _WORKLOADS.move_to_end(key)
            return _WORKLOADS[key]
    if benchmark.startswith(TRACE_PREFIX):
        built = _build_trace_workload(benchmark, coding)
    else:
        built = get_benchmark(benchmark).build(coding, seed=seed)
    with _WORKLOADS_LOCK:
        existing = _WORKLOADS.get(key)
        if existing is not None:  # raced: keep the first build
            return existing
        _WORKLOADS[key] = built
        while len(_WORKLOADS) > _WORKLOAD_MEMO_LIMIT:
            _WORKLOADS.popitem(last=False)
    return built


def build_processor(coding: str) -> ProcessorConfig:
    """Processor model for one coding name."""
    try:
        return PROCESSORS[coding]()
    except KeyError:
        raise ConfigError(f"unknown coding {coding!r}") from None


def build_memsys(name: str, l2_latency: int = 20) -> MemSysConfig:
    """Memory-system configuration for one design name."""
    try:
        factory = MEMSYSTEMS[name]
    except KeyError:
        raise ConfigError(f"unknown memory system {name!r}") from None
    if name == "ideal":
        return factory()
    return factory(l2_latency)


def _split_overrides(overrides) -> tuple[dict, dict, dict, str | None]:
    """Partition override pairs into processor/hierarchy/memsys dicts.

    The special ``timing_model`` override selects the pipeline
    implementation (``batched``/``reference``) instead of a
    configuration field — both produce bit-identical statistics, so it
    exists for differential testing and benchmarking through the
    engine.
    """
    proc, hier, memsys = {}, {}, {}
    model: str | None = None
    for name, value in overrides:
        if name in _PROC_FIELDS:
            _check_value(name, value)
            proc[name] = value
        elif name in _HIER_FIELDS:
            _check_value(name, value)
            hier[name] = value
        elif name in _MEMSYS_FIELDS:
            _check_value(name, value)
            memsys[name] = value
        elif name == "timing_model":
            from repro.timing.pipeline import TIMING_MODELS

            if value not in TIMING_MODELS:
                raise ConfigError(
                    f"unknown timing model {value!r}; expected one of "
                    f"{tuple(TIMING_MODELS)}")
            model = value
        elif name == "l2_latency":
            raise ConfigError(
                "set l2_latency on the RunSpec itself, not as an override")
        else:
            raise ConfigError(
                f"unknown override field {name!r}; expected a "
                f"ProcessorConfig, HierarchyConfig or MemSysConfig field, "
                f"or timing_model")
    return proc, hier, memsys, model


def _resolve_spec(spec: RunSpec
                  ) -> tuple[ProcessorConfig, MemSysConfig, str | None]:
    """Instantiate configs and the timing-model choice in one pass."""
    proc_over, hier_over, ms_over, model = _split_overrides(spec.overrides)
    proc = build_processor(spec.coding)
    if proc_over:
        proc = replace(proc, **proc_over)
    memsys = build_memsys(spec.memsys, spec.l2_latency)
    if hier_over:
        memsys = replace(memsys,
                         hierarchy=replace(memsys.hierarchy, **hier_over))
    if ms_over:
        memsys = replace(memsys, **ms_over)
    return proc, memsys, model


def build_configs(spec: RunSpec) -> tuple[ProcessorConfig, MemSysConfig]:
    """Instantiate the processor and memory system a spec describes."""
    proc, memsys, _model = _resolve_spec(spec)
    return proc, memsys


def timing_model_for(spec: RunSpec) -> str | None:
    """The spec's ``timing_model`` override, if any."""
    return _split_overrides(spec.overrides)[3]


def validate_spec(spec: RunSpec) -> None:
    """Raise :class:`ConfigError` if ``execute_spec`` would.

    Cheap (config construction only — nothing is built or simulated):
    checks the benchmark name, override routing/typing and the timing
    model, i.e. everything :func:`execute_spec` validates before the
    expensive work.  The service scheduler screens batches with this
    so one bad spec fails alone instead of poisoning its batchmates.
    """
    _resolve_spec(spec)
    if spec.benchmark.startswith(TRACE_PREFIX):
        digest = spec.benchmark[len(TRACE_PREFIX):]
        if digest not in _TRACE_PATHS:
            raise ConfigError(
                f"trace {spec.benchmark!r} is not registered in this "
                f"process; call engine.register_trace(path) first")
    else:
        get_benchmark(spec.benchmark)


def execute_spec(spec: RunSpec) -> RunStats:
    """Run one simulation point from scratch (no caching)."""
    from repro.timing.pipeline import simulate

    proc, memsys, model = _resolve_spec(spec)
    workload = build_workload(spec.benchmark, spec.coding, spec.seed)
    return simulate(workload.program, proc, memsys, warm=spec.warm,
                    model=model)


def grid_group_key(spec: RunSpec) -> tuple:
    """The trace-group a spec belongs to for grid-axis execution.

    Specs sharing one decoded trace and priming mode can be simulated
    by a single :class:`~repro.timing.grid.GridPipeline` pass.
    """
    return (spec.benchmark, spec.coding, spec.seed, spec.warm)


def grid_eligible(spec: RunSpec) -> bool:
    """Whether the grid path may serve this spec.

    Only the batched timing model (the default) has a grid-axis
    formulation; a ``timing_model`` override pinning the reference
    pipeline must run per spec.
    """
    return timing_model_for(spec) in (None, "batched")


def plan_grid(specs) -> tuple[list[list[RunSpec]], list[RunSpec]]:
    """Partition specs into grid groups and per-spec fallbacks.

    A trace group of two or more grid-eligible specs is one grid
    group, where its members share work; a lone eligible spec and
    every ineligible one fall back to the per-spec path (see
    ``BENCH_grid.json`` for what a group buys).  Order inside a group
    follows the input order.
    """
    groups: dict[tuple, list[RunSpec]] = {}
    fallbacks: list[RunSpec] = []
    for spec in specs:
        if grid_eligible(spec):
            groups.setdefault(grid_group_key(spec), []).append(spec)
        else:
            fallbacks.append(spec)
    grid_groups: list[list[RunSpec]] = []
    for members in groups.values():
        if len(members) < 2:
            fallbacks.extend(members)
        else:
            grid_groups.append(members)
    return grid_groups, fallbacks


def simulate_specs(specs) -> dict[RunSpec, RunStats]:
    """Execute specs in-process, grid-vectorizing trace groups.

    The in-process execution primitive every backend bottoms out in:
    every group :func:`plan_grid` forms goes through
    :class:`~repro.timing.grid.GridPipeline` (one shared decode, one
    traffic replay per cache geometry, one lean walk per distinct
    schedule), every fallback through :func:`execute_spec`.  Results
    are bit-identical either way — the timing differential suite pins
    both paths to the reference pipeline.
    """
    from repro.timing.grid import GridPipeline

    grid_groups, fallbacks = plan_grid(specs)
    results: dict[RunSpec, RunStats] = {}
    for members in grid_groups:
        workload = build_workload(members[0].benchmark,
                                  members[0].coding, members[0].seed)
        configs = [build_configs(spec) for spec in members]
        stats = GridPipeline(workload.program, configs).run(
            warm=members[0].warm)
        results.update(zip(members, stats))
    for spec in fallbacks:
        results[spec] = execute_spec(spec)
    return results


def trace_paths_for(specs) -> tuple[tuple[str, str], ...]:
    """The ``register_trace`` entries a shard's executor will need."""
    digests = {spec.benchmark[len(TRACE_PREFIX):] for spec in specs
               if spec.benchmark.startswith(TRACE_PREFIX)}
    return tuple((digest, _TRACE_PATHS[digest]) for digest in
                 sorted(digests) if digest in _TRACE_PATHS)


def restore_trace_paths(pairs) -> None:
    """Re-register ``(digest, path)`` pairs in this process.

    Pool workers (which inherit nothing under the spawn start method)
    call this with the parent's :func:`trace_paths_for` output before
    executing a shard of ``trace:`` specs.
    """
    _TRACE_PATHS.update(pairs)


def shard_specs(specs: list[RunSpec]) -> list[list[RunSpec]]:
    """One shard per ``(benchmark, coding, seed)`` workload trace.

    Shards come in first-seen order and keep the input order inside,
    so each holds its whole trace: one build and one decode per shard,
    and every grid group intact for the executing side's grid-axis
    pass.  No specs yield no shards.
    """
    shards: dict[tuple, list[RunSpec]] = {}
    for spec in specs:
        shards.setdefault((spec.benchmark, spec.coding, spec.seed),
                          []).append(spec)
    return list(shards.values())
