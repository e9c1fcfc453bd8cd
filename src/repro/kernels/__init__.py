"""Optional vectorized batch kernels over the engine's flat columns.

The paper's pitch is columnar execution over Monet BATs, yet the hot
serving path is pure-python loops over ``array('q')`` columns.  This
package supplies the batch half of that bargain: NumPy kernels that
view the *existing* generation-keyed columns through the buffer
protocol (``np.frombuffer`` — zero copies over ``array('q')`` columns
and mmap'd snapshot sections) and replace the per-element python loops
with whole-array passes:

* :mod:`repro.kernels.lca` — batched Euler-RMQ LCA (``lca_many``) and
  a fully vectorized auxiliary-tree construction;
* :mod:`repro.kernels.rollup` — the Fig. 4/5 roll-ups as level-wise
  array passes over the auxiliary tree;
* :mod:`repro.kernels.postings` — sorted-array postings intersection /
  union / grouping for the full-text index.

NumPy is an *optional* extra (``pip install repro-meet[native]``).
Nothing in this package's import requires it: :func:`available` probes
for it once, every consumer checks the probe before importing a kernel
module, and an import failure degrades to the pure-python
implementations (:func:`repro.core.backends.resolve_backend` warns once
per process when that turns a ``vector`` request into ``indexed``).
Setting ``REPRO_KERNELS=python`` in the environment forces the
pure-python tier even when NumPy is importable — the knob the no-numpy
CI leg and A/B benchmarks use.
"""

from __future__ import annotations

import os
from typing import Optional

__all__ = [
    "available",
    "tier",
    "active_tier",
    "numpy",
    "KernelUnavailable",
    "KERNEL_TIERS",
]

#: The kernel tiers a process can run in.
KERNEL_TIERS = ("python", "vector")

#: Environment values of ``REPRO_KERNELS`` that force pure python.
_FORCE_PYTHON = {"python", "off", "0", "disabled"}

_probe: Optional[bool] = None
_numpy = None


class KernelUnavailable(RuntimeError):
    """Raised when a kernel module is used without NumPy available."""


def _forced_off() -> bool:
    return os.environ.get("REPRO_KERNELS", "").strip().lower() in _FORCE_PYTHON


def available() -> bool:
    """Whether the vectorized kernel tier can run in this process.

    True when NumPy is importable and ``REPRO_KERNELS`` does not force
    the pure-python tier.  The import probe runs at most once; the
    environment override is consulted on every call so tests can flip
    tiers without reloading modules.
    """
    global _probe, _numpy
    if _forced_off():
        return False
    if _probe is None:
        try:
            import numpy
        except Exception:  # pragma: no cover - exercised on no-numpy CI
            _probe = False
        else:
            _numpy = numpy
            _probe = True
    return _probe


def numpy():
    """The probed NumPy module, or :class:`KernelUnavailable`."""
    if not available():
        raise KernelUnavailable(
            "NumPy is not importable (or REPRO_KERNELS forces the "
            "python tier); install the 'native' extra to enable the "
            "vectorized kernels"
        )
    return _numpy


def tier() -> str:
    """The kernel tier this process runs: ``"vector"`` or ``"python"``."""
    return "vector" if available() else "python"


def active_tier(backend_name: Optional[str]) -> str:
    """The tier a collection actually serves with.

    A collection runs vectorized only when its resolved backend is the
    vector one *and* the kernels are importable; every other backend —
    including a ``vector`` request that degraded — serves
    from the pure-python tier.
    """
    return "vector" if backend_name == "vector" and available() else "python"
