"""Rule modules; importing this package registers every rule.

Rule ID map (one family per module):

* ``REPRO101``/``REPRO102`` — :mod:`.rng` (RNG discipline)
* ``REPRO201`` — :mod:`.locking` (lock discipline)
* ``REPRO301``/``REPRO302`` — :mod:`.frozen` (frozen-dataclass mutation)
* ``REPRO401``/``REPRO402`` — :mod:`.sessions` (session purity)
* ``REPRO501`` — :mod:`.batching` (batched-path enforcement)
* ``REPRO601``/``REPRO602``/``REPRO701`` — :mod:`.determinism`
  (nondeterminism ban, clock discipline)
* ``REPRO801`` — :mod:`.durability` (one owner for file-level durability)
"""

from . import batching, determinism, durability, frozen, locking, rng, sessions  # noqa: F401
