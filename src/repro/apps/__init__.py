"""The paper's five workload applications (Table 1), as real SPMD kernels.

Every application is written against the simulated MPI/BLACS/darray
substrate as genuine distributed code — panel broadcasts, ring
allgathers, all-to-all transposes — so communication costs emerge from
the algorithms rather than from closed-form formulas.  Local computation
is charged to the simulated clock through a calibrated flop model; in
materialized mode the arithmetic is also actually performed and verified
against numpy references (LU's triangular solve imports scipy on first
use, so phantom runs load numpy only).

=============  =====================================================
Application    Kernel
=============  =====================================================
LU             Right-looking block LU with partial pivoting
               (the role of ScaLAPACK's PDGETRF)
MM             SUMMA matrix-matrix multiply (the role of PDGEMM)
Jacobi         Dense Jacobi iteration, row-block layout
FFT            2-D FFT via row FFTs + all-to-all transpose
Master-worker  Fixed-time work units dealt from a master
=============  =====================================================
"""

from repro.apps.base import AppContext, Application
from repro.apps.fft2d import FFT2DApplication
from repro.apps.jacobi import JacobiApplication
from repro.apps.lu import LUApplication
from repro.apps.masterworker import MasterWorkerApplication
from repro.apps.matmul import MatMulApplication
from repro.apps.synthetic import SyntheticApplication

__all__ = [
    "AppContext",
    "Application",
    "FFT2DApplication",
    "JacobiApplication",
    "LUApplication",
    "MasterWorkerApplication",
    "MatMulApplication",
    "SyntheticApplication",
]


def application_by_name(name: str, **kwargs):
    """Factory used by workload configs: name -> Application instance."""
    table = {
        "lu": LUApplication,
        "mm": MatMulApplication,
        "matmul": MatMulApplication,
        "jacobi": JacobiApplication,
        "masterworker": MasterWorkerApplication,
        "master-worker": MasterWorkerApplication,
        "fft": FFT2DApplication,
        "fft2d": FFT2DApplication,
    }
    key = name.strip().lower()
    if key not in table:
        raise ValueError(f"unknown application {name!r}")
    return table[key](**kwargs)
