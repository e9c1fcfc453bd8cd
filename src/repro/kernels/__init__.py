"""Vectorized batch kernels over the engine's flat columns.

The paper's pitch is columnar execution over Monet BATs; this package
is the batch half of that bargain: NumPy kernels that view the
generation-keyed columns through the buffer protocol (``np.asarray`` —
zero copies over int32 snapshot sections) and answer whole batches
with whole-array passes:

* :mod:`repro.kernels.lca` — the sampled sparse table over the Euler
  tour, batched LCA (``lca_many``) and a fully vectorized
  auxiliary-tree construction;
* :mod:`repro.kernels.rollup` — the Fig. 4/5 roll-ups as level-wise
  array passes over the auxiliary tree;
* :mod:`repro.kernels.postings` — sorted-array postings intersection /
  union / grouping for the full-text index.

NumPy is a dependency of the package.  The ``vector`` meet backend
(:class:`repro.core.backends.VectorBackend`) serves from these kernels;
the ``steered`` backend runs the paper's per-query walks and is the
reference every differential suite compares them against.
"""
