"""tdntc: network traffic classification with time-distributed CNN/LSTM models.

Every value the models compute is a plain numpy array in C (row-major)
order with dtype float64: 32-bit floats are not precise enough to pass the
1e-4 finite-difference checks that verify the hand-written backward passes.

Kept import-light on purpose: the CLI applies the TDNTC_THREADS cap to the
BLAS thread-count environment variables before numpy is first imported, so
nothing heavy may be pulled in at package-import time.
"""

__version__ = "0.1.0"
