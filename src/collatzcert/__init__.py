"""Lower bound certificates for 3x+1 total stopping times.

Exhaustive pruned-tree search over residue classes proves that infinitely
many integers have trajectories with a prescribed fraction of odd steps;
this package searches for, verifies, and exploits those certificates.
"""

from .certify import (
    Certificate,
    CertificateEntry,
    SweepState,
    Unclosed,
    Violation,
    load_certificate,
    parse_certificate,
    replay_path,
    save_certificate,
    search,
    verify,
    witnesses,
)
from .engine import (
    CheckpointState,
    load_checkpoint,
    run,
    save_checkpoint,
    stats,
)
from .numth import (
    TrajectoryReport,
    codeword_display,
    codeword_from_display,
    inverse_t,
    t_map,
    trajectory,
)
from .tree import (
    count_structures,
    grow_children,
    grow_record,
    structure_signature,
    walk_integers,
    walk_nodes,
)

__version__ = "0.1.0"
