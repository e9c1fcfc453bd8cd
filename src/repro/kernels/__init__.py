"""Vectorized batch kernels over the engine's flat columns.

The paper's pitch is columnar execution over Monet's binary
relations; this package is the batch half of that bargain: NumPy
kernels that view the generation-keyed columns through the buffer
protocol (``np.asarray`` — zero copies over int32 snapshot sections)
and answer whole batches with whole-array passes:

* :mod:`repro.kernels.lca` — the sampled sparse table over the depth
  column in OID order, batched LCA (``lca_many``) and a fully vectorized
  auxiliary-tree construction;
* :mod:`repro.kernels.rollup` — the Fig. 4/5 roll-ups as level-wise
  array passes over the auxiliary tree;
* :mod:`repro.kernels.postings` — sorted-array postings intersection /
  union / grouping for the full-text index.

NumPy is a dependency of the package.  Every open serves from these
kernels (:class:`repro.core.backends.VectorBackend`); the paper's
per-query walks (``backend="steered"``) are the reference every
differential suite compares them against.  Distinct values come from
:func:`repro.kernels.lca.sorted_unique`, never plain ``np.unique``,
whose first call imports ``numpy.ma`` (11–40 ms on a one-shot query).
"""
