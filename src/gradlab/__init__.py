"""gradlab: numerical laboratory for gradient estimates of quasilinear
elliptic Neumann problems with supernatural gradient growth.

On glibc, importing gradlab sets the process-wide malloc mmap and trim
thresholds to 32 MiB and 64 MiB; a host wanting others calls mallopt after.
"""

import ctypes

__version__ = "0.1.0"

# mallopt's parameter numbers, from glibc's <malloc.h>
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _set_malloc_thresholds(libc=None) -> tuple:
    """Hold glibc's heap from trimming the temporaries each phase frees.

    glibc starts with a 128 KiB mmap threshold and a trim threshold of
    twice that, and raises both only when a freed block is larger, so a
    process that never frees a large block, such as one that only audits a
    stored solution, hands its heap top back to the kernel at every phase
    and faults it in again at the next.  This sets the mmap threshold to
    glibc's own dynamic ceiling, ``4 MiB * sizeof(long)``, the largest value
    mallopt accepts, and the trim threshold to twice that, glibc's own rule:
    the state glibc reaches after freeing one large block.

    ``libc`` is the C library to set them in, the process's own by default.
    Returns the names of the settings applied, in order; one that mallopt
    refuses stops the rest.  A C library that is not glibc is left alone.
    """
    try:
        libc = ctypes.CDLL(None) if libc is None else libc
    except (OSError, TypeError):  # no C library loadable by name
        return ()
    if not hasattr(libc, "gnu_get_libc_version"):
        return ()
    mmap_threshold = 4 * 2**20 * ctypes.sizeof(ctypes.c_long)
    applied = []
    for name, param, value in (
        ("M_MMAP_THRESHOLD", _M_MMAP_THRESHOLD, mmap_threshold),
        ("M_TRIM_THRESHOLD", _M_TRIM_THRESHOLD, 2 * mmap_threshold),
    ):
        if not libc.mallopt(param, value):
            break
        applied.append(name)
    return tuple(applied)


_set_malloc_thresholds()
