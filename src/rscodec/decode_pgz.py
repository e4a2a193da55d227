"""`pgz_decode` and `solve_locator`, which live in `decode_interp`.

Both names stay bound here because the benchmark's tracer targets
`decode_pgz.pgz_decode` and its tests read `decode_pgz.solve_locator`.
"""

from .decode_interp import pgz_decode, solve_locator  # noqa: F401
