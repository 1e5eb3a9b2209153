"""Re-exports of the global basis procedures, which live in
:mod:`curvesgp.reduction`.

Only the benchmark's span wrappers (``perfbench/spans.py``) import this
module: they wrap ``global_basis`` and ``reduced_basis_global`` through it.
Nothing in the package does.  ``reduced_basis_global`` is
:func:`curvesgp.reduction.reduced_basis`, which reads the setting off the
basis.  The module goes once the spans wrap the ``reduction`` names instead
(ROADMAP item 1).
"""

from .reduction import global_basis, reduced_basis as reduced_basis_global
