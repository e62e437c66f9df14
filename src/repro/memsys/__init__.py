"""Memory system: caches, hierarchy, and the vector-port designs.

The three realistic port designs the paper compares (multi-banked,
vector cache, vector cache + 3D register file) plus the idealistic
baseline all share the :class:`~repro.memsys.ports.VectorPort`
interface, so the timing model is agnostic to which one is plugged in.
"""

from repro.lazy import lazy_exports

# Names load on first access: a processor configuration needs only the
# hierarchy geometry, and the port designs load when a memory system
# is built for a simulation.
__getattr__ = lazy_exports(__name__, {
    "repro.memsys.cache": ("CacheStats", "SetAssocCache"),
    "repro.memsys.hierarchy": ("CacheHierarchy", "HierarchyConfig"),
    "repro.memsys.ideal": ("IdealL1Port", "IdealPort"),
    "repro.memsys.l1port": ("L1Port",),
    "repro.memsys.mainmem": ("MainMemory",),
    "repro.memsys.multibank": ("MultiBankedPort",),
    "repro.memsys.ports": ("MemRequest", "PortSchedule", "PortStats",
                           "VectorPort", "request_for"),
    "repro.memsys.vectorcache": ("VectorCachePort",),
})

__all__ = [
    "CacheHierarchy", "CacheStats", "HierarchyConfig", "IdealL1Port",
    "IdealPort", "L1Port", "MainMemory", "MemRequest", "MultiBankedPort",
    "PortSchedule", "PortStats", "SetAssocCache", "VectorCachePort",
    "VectorPort", "request_for",
]
