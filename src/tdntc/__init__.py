"""tdntc: network traffic classification with time-distributed CNN/LSTM models.

Every value the models compute is a plain numpy array in C (row-major)
order with dtype float64: 32-bit floats are not precise enough to pass the
1e-4 finite-difference checks that verify the hand-written backward passes.

Kept import-light on purpose: the CLI applies the TDNTC_THREADS cap to the
BLAS thread-count environment variables before numpy is first imported, and
`Error` lives here so that reporting a failed command, such as `featurize`
on a file that is not a pcap, loads no numpy either.
"""

__version__ = "0.1.0"

# The six classifier variants, here so that the CLI parser loads no numpy.
VARIANTS = ("m1-td", "m1-van", "m2-td", "m2-van", "m3-td", "m3-van")


class Error(Exception):
    """Root of the typed errors; the CLI prints one as `error: ...`, exit 1."""
