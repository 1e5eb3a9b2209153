"""Re-exports of the local basis procedures, which live in
:mod:`curvesgp.reduction`.

Only the benchmark's span wrappers (``perfbench/spans.py``) import this
module: they wrap ``local_basis``, ``reduced_basis`` and ``minimal_basis``
through it.  Nothing in the package does.  It goes once the spans wrap the
``reduction`` names instead (ROADMAP item 1).
"""

from .reduction import local_basis, minimal_basis, reduced_basis
