"""The kernel-backend name that environment probes record."""

from mfvdm import kernels


def test_backend_reports_a_known_name():
    assert kernels.backend() == "numpy"
