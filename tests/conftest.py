"""Pin BLAS to one thread before numpy loads.

Every matrix in this suite is small (order <= 160), where a second BLAS
thread only adds synchronisation: the sweeps run about twice as fast on
one thread.  An explicit setting in the environment still wins.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
