"""Declarative grid/sweep construction over the simulation space.

A :class:`Sweep` is the cartesian product of axes the paper's
evaluation (and our ablations) range over: benchmarks, ISA codings,
memory-system designs, L2 latencies, and free-form configuration
overrides (line sizes, lane counts, rename depths, port widths, ...).
``Sweep.specs()`` expands it to an ordered list of
:class:`~repro.engine.keys.RunSpec`, ready for
:meth:`repro.engine.Engine.run_many`.

Example — the Fig. 10 latency grid::

    Sweep(benchmarks=("mpeg2_encode", "gsm_encode"),
          codings=("mom", "mom3d"),
          l2_latencies=(20, 40, 60)).specs()

Example — an L2 line-size ablation::

    Sweep(benchmarks=("gsm_encode",), codings=("mom3d",),
          overrides=axes_product(l2_line=(64, 128, 256))).specs()
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

from repro.engine.keys import RunSpec


def axes_product(**axes: Sequence) -> list[dict]:
    """Cartesian product of per-field value lists, as override dicts.

    ``axes_product(l2_line=(64, 128), vc_width_words=(2, 4))`` yields
    four dicts covering every combination.  Axis order follows keyword
    order; values vary fastest on the right.
    """
    names = list(axes)
    return [dict(zip(names, values))
            for values in itertools.product(*axes.values())]


@dataclass
class Sweep:
    """A declarative grid of simulation points."""

    benchmarks: Sequence[str]
    codings: Sequence[str] = ("mom3d",)
    memsystems: Sequence[str] = ("vector",)
    l2_latencies: Sequence[int] = (20,)
    #: one spec per override mapping; ``({},)`` means "no overrides"
    overrides: Sequence[Mapping] = field(default_factory=lambda: ({},))
    warm: bool = True
    seed: int = 0

    def specs(self) -> list[RunSpec]:
        """Expand to specs (benchmark-major, overrides varying fastest)."""
        return [
            RunSpec(benchmark=bench, coding=coding, memsys=memsys,
                    l2_latency=latency, warm=self.warm, seed=self.seed,
                    overrides=tuple(over.items()))
            for bench, coding, memsys, latency, over in itertools.product(
                self.benchmarks, self.codings, self.memsystems,
                self.l2_latencies, self.overrides)
        ]

    def __len__(self) -> int:
        return (len(self.benchmarks) * len(self.codings)
                * len(self.memsystems) * len(self.l2_latencies)
                * len(self.overrides))

    def __iter__(self):
        return iter(self.specs())
