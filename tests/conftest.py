"""Shared fixtures: a write failure injected into ``mfvdm.io``'s files."""

import builtins
import contextlib
import errno
import os

import pytest

from mfvdm import io as mio


class _FailingHandle:
    """A writable file that raises OSError rather than take ``budget`` more
    characters (bytes in binary mode); what it took stays in the file."""

    def __init__(self, handle, budget):
        self._handle = handle
        self._budget = budget

    def __getattr__(self, name):
        return getattr(self._handle, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return self._handle.__exit__(*exc_info)

    def write(self, data):
        if len(data) > self._budget:
            raise OSError(errno.ENOSPC, "injected write failure")
        self._budget -= len(data)
        return self._handle.write(data)

    def writelines(self, lines):
        for line in lines:
            self.write(line)


@pytest.fixture
def fail_writes():
    """``with fail_writes(name, budget):`` makes every file that
    ``mfvdm.io`` opens for writing under a name containing ``name`` fail
    once ``budget`` characters or bytes have gone into it."""

    @contextlib.contextmanager
    def install(victim, budget):
        def faulty_open(file, mode="r", *args, **kwargs):
            handle = builtins.open(file, mode, *args, **kwargs)
            if victim in os.path.basename(file) and set(mode) & set("wxa"):
                return _FailingHandle(handle, budget)
            return handle

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mio, "open", faulty_open, raising=False)
            yield

    return install
