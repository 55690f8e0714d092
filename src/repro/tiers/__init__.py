"""The node-local / remote storage hierarchy.

Level 0 (GPU HBM cache) and level 1 (pinned host cache) are fixed-capacity
contiguous arenas managed by the runtime's eviction logic
(:mod:`repro.core.cache`).  Level 2 (node-local SSD) and level 3 (parallel
file system) are throttled object stores assumed large enough for a node's /
the job's full checkpoint history (the paper's capacity assumption,
Section 2); both are one :class:`ObjectStore` that differs only in the
links a chunk crosses.
"""

from repro.tiers.base import ObjectStore, TierLevel
from repro.tiers.ssd import SsdStore
from repro.tiers.pfs import PfsStore
from repro.tiers.gpu import make_gpu_cache_arena
from repro.tiers.host import make_host_cache_arena
from repro.tiers.topology import Cluster, Node, ProcessContext

__all__ = [
    "ObjectStore",
    "TierLevel",
    "SsdStore",
    "PfsStore",
    "make_gpu_cache_arena",
    "make_host_cache_arena",
    "Cluster",
    "Node",
    "ProcessContext",
]
