import os
import sys

from . import BLAS_THREAD_VARS

for var in BLAS_THREAD_VARS:   # numpy is not loaded yet
    os.environ.setdefault(var, "1")

from .cli import main  # noqa: E402

sys.exit(main())
