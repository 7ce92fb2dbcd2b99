"""Knowledge-graph construction (Section IV of the paper).

Pipeline: the three subgraphs — user–item (UIG), user–user (UUG), and
item–attribute (IAG, carrying LOC / DKG / MD knowledge sources) — are built
from a trace + catalog + population, then merged via entity alignment into a
:class:`~repro.kg.ckg.CollaborativeKnowledgeGraph` with a unified entity id
space and an ``Interact`` relation.

Modules
-------
- :mod:`~repro.kg.triples` — relation registry and triple store (SoA int64
  arrays, deduplication, inverse-relation augmentation);
- :mod:`~repro.kg.subgraphs` — UIG / UUG / IAG builders and the
  :class:`~repro.kg.subgraphs.KnowledgeSources` toggle set used by the
  Table-III ablation;
- :mod:`~repro.kg.ckg` — entity alignment and the CKG container;
- :mod:`~repro.kg.adjacency` — CSR edge layout sorted by head entity (for
  segment ops) and fixed-size neighbor sampling (for KGCN/RippleNet);
- :mod:`~repro.kg.stats` — Table-I statistics.
"""

from repro.kg.adjacency import CSRAdjacency, sample_fixed_neighbors
from repro.kg.ckg import CollaborativeKnowledgeGraph, build_ckg
from repro.kg.multi import MultiFacilityIndex, build_cross_facility_ckg
from repro.kg.paths import RelationPath, explain_recommendation, find_paths
from repro.kg.prepared import PreparedGraph
from repro.kg.stats import CKGStats, compute_stats
from repro.kg.subgraphs import KnowledgeSources, build_iag, build_uig, build_uug
from repro.kg.triples import RelationRegistry, TripleStore

__all__ = [
    "RelationRegistry",
    "TripleStore",
    "KnowledgeSources",
    "build_uig",
    "build_uug",
    "build_iag",
    "CollaborativeKnowledgeGraph",
    "build_ckg",
    "CSRAdjacency",
    "PreparedGraph",
    "sample_fixed_neighbors",
    "CKGStats",
    "compute_stats",
    "MultiFacilityIndex",
    "build_cross_facility_ckg",
    "RelationPath",
    "find_paths",
    "explain_recommendation",
]
