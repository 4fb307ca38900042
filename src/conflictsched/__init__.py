"""Conflict-aware scheduling of transactions onto homogeneous cores.

The package assigns n processes with pairwise conflicts to m cores using the
paper's greedy iterative heuristic or an event-driven list scheduler
(EVENT), minimizing makespan while guaranteeing conflict-free parallel
execution; attestor mode additionally preserves the original order of
conflicting pairs. Includes workload generation and I/O,
schedule validation, an exact small-instance solver, objective metrics with
the paper's analytic makespan estimates, and a benchmark harness.

Every name in a library module's ``__all__`` is importable from here. The
CLI is not imported, so importing the package does not load ``argparse``.
"""

from . import bench, metrics, model, oracle, scheduler
from .bench import *
from .metrics import *
from .model import *
from .oracle import *
from .scheduler import *

__version__ = "0.1.0"

__all__ = [*bench.__all__, *metrics.__all__, *model.__all__, *oracle.__all__, *scheduler.__all__]
