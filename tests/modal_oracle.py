"""The explicit transverse cavity-mode basis T, the oracle for the
matrix-free transforms that memax applies from the 1-D factors."""

import numpy as np
from scipy import sparse

from memax.operators import _component_modes, _kron


def transverse_mode_basis(bundle):
    """Orthonormal transverse cavity-mode basis T of the (E, H) state space.

    T is block-diagonal by field component; each block is the Kronecker
    product over the three axes of the orthonormal DCT-II (cell-centred
    samples), the orthonormal DST-I (interior nodes) or, along the interface
    axis, the identity.  The wall nodes of the normal H faces, which C0
    leaves uncoupled, stay as they are.  Modal row r has the component and
    interface coordinate of dof r.

    Returns (T as a CSR matrix, the integer mode label of each row).
    """
    comps = _component_modes(bundle.grid, "edge") + _component_modes(bundle.grid, "face")
    blocks = [_kron([factors.get(b, np.eye(m)) for b, m in enumerate(shape)])
              for shape, factors, _ in comps]
    return sparse.block_diag(blocks, format="csr"), np.concatenate([c[2] for c in comps])
