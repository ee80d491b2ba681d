"""Name of the kernel implementation, read by environment probes.

The Hermitian matvec is a scipy CSR product on ``SparseHermitian``.
"""


def backend() -> str:
    """Name of the kernel implementation; always ``"numpy"``."""
    return "numpy"
