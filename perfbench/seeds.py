"""Committed seeds of the benchmark.

DEFAULT is the seed a claim is developed and measured on. HELD_OUT is kept
aside: a change claiming a gain must show it on HELD_OUT too, a seed its
author did not tune against. Both have recorded result digests in
perfbench/expected/.
"""

DEFAULT = 1
HELD_OUT = 7
