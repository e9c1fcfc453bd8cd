"""Euler-tour + (sampled) sparse-table RMQ LCA (the classic offline-preprocessing
answer to the LCA problem the paper cites as refs. [4, 5]).

Historically this lived here as a baseline-only oracle.  It has been
promoted to :mod:`repro.core.lca_index` — where it powers the
``indexed`` meet backend (:class:`repro.core.backends.IndexedBackend`)
with O(1) LCA *and* O(1) depth-based distance — and this module keeps
the original name as a thin alias so the ablation benches and oracle
tests keep reading as "the indexed baseline the paper chose not to
need".
"""

from __future__ import annotations

from ..core.lca_index import LcaIndex

__all__ = ["EulerTourLCA"]


class EulerTourLCA(LcaIndex):
    """Back-compat name for :class:`repro.core.lca_index.LcaIndex`."""
