"""The matrix on a transfer system's states, shared by the tests that pin or
check it entry by entry, and the grid of systems whose digests they pin
(tools/transfer_hash.py imports the grid and hashes it)."""

import numpy as np

from gfrec.linalg import SparseMatrix

DIGEST_EXPRS = (
    "tau(2)", "tau(3)", "tau(4)", "tau(5)", "sigma(2)", "sigma(3)", "R(2)", "R(2,3)", "R(2,4)",
    "T(2,4)", "R(2,3)+R(2)", "T(2,4)+e2*T(3)", "e2*T(2,3)", "R(2,3,4)", "e3*R(2)+R(3)",
)
DIGEST_FIELDS = (2, 3, 4, 5, 7, 8, 9)


def state_matrix(sys):
    """The sys.dim-state matrix that steps sys's states: sys.sparse, or for a
    rotation T (x) I, whose state a Q + i steps like a and keeps i (Q =
    T.dim).  Row a Q + i holds row a of T with each column b moved to
    b Q + i, so it keeps T's triples in their order."""
    m = sys.sparse
    columns = sys.dim // m.dim
    if columns == 1:
        return m
    lengths = np.repeat(np.diff(m.starts), columns)  # of the rows a Q + i
    starts = np.append(0, np.cumsum(lengths))
    row = np.repeat(np.arange(sys.dim), lengths)
    k = m.starts[row // columns] + np.arange(starts[-1]) - starts[row]  # T's triple
    return SparseMatrix(m.p, starts, m.cols[k] * columns + row % columns, m.exps[k], m.amps[k])
