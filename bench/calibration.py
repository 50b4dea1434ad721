"""A fixed kernel, timed next to the ops, that scales op times to the host's nominal speed.

The benchmark host may share its cores with other machines.  On a 2-vCPU
Xeon virtual machine shared with other tenants, the same single-threaded
code ran up to 1.6x slower for tens of seconds at a time (CPU time slowed as
much as wall time, so it is not preemption), and medians within one run
could not make wall times repeat from run to run: over ten seeds the spread between
quartiles of the unscaled op_ms_p50, op_ms_p90 and states_per_s reached 0.32
of the median.  The program does not change this kernel, so dividing by its
time removes the host's speed and keeps the program's; scaled, the same
spreads stayed within 0.21, most of them below 0.1.

Different code slows by different amounts in a slow phase, so the kernel
mixes what the ops spend their time on: an interpreter loop, building
small containers, small numpy calls, one 4-operand einsum like the sphere
inner product, and vectorised numpy over 64 KB.  It touches under 200 KB,
and the cyclic garbage collector is paused while it runs so that its time
does not depend on the program's heap.  A time ``t`` taken while the kernel
takes ``k`` seconds is reported as ``t * NOMINAL_S / k``: what it would have
taken at the kernel's median speed on that machine.  Unscaled times are
printed beside the scaled ones and kept in the result file.

The kernel did not track the wall time of a fresh process that imports the
program (the set-up probes of ``run.py``): that time is mostly interpreter
start, imports and compiling, and varied from probe to probe more than the
kernel did.  Set-up time is scaled instead by a control process, timed next
to each probe: a fresh interpreter that imports numpy and nothing of the
program.  A median probe time ``p`` over a median control time ``c`` is
reported as ``p * CONTROL_NOMINAL_S / c``.
"""

import gc
from time import perf_counter

import numpy as np

NOMINAL_S = 1.0e-3  # the kernel's median time on the reference host
CONTROL_ARGV = ("-c", "import numpy")  # run by the benchmark's own interpreter
CONTROL_NOMINAL_S = 0.15  # the control process's median wall time on the reference host

_rng = np.random.default_rng(20060214)
_VEC = _rng.standard_normal(25) + 1j * _rng.standard_normal(25)
_MAT = _rng.standard_normal((25, 25)) + 1j * _rng.standard_normal((25, 25))
_ROWS = _rng.standard_normal((7, 19)) + 1j * _rng.standard_normal((7, 19))
_OVERLAP = _rng.standard_normal((7, 7))
_BLOCK = _rng.standard_normal((19, 19)) + 1j * _rng.standard_normal((19, 19))
_GRID = _rng.standard_normal(4096)


def kernel_seconds():
    """Wall time of one run of the fixed kernel."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        total = 0
        for i in range(1600):
            total += i * i
        rows = {}
        for i in range(600):
            rows[i] = [i, str(i)]
        acc = 0j
        for _ in range(60):
            acc += complex(np.vdot(_VEC, _MAT @ _VEC))
        acc += complex(np.einsum("mk,mn,kl,nl->", _ROWS.conj(), _OVERLAP, _BLOCK, _ROWS))
        for _ in range(2):
            acc += complex(np.sum(np.exp(1j * _GRID) * _GRID))
        return perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()
