"""A tiny dependency-free property-testing harness.

The suite's one property layer: pure ``random.Random``, so it runs
anywhere the library runs and its failures replay *exactly* from a
printed seed:

* :func:`run_cases` runs a property against ``REPRO_PROPTEST_CASES``
  independently seeded RNGs (default :data:`DEFAULT_CASES`); on the
  first failure it raises an AssertionError whose message contains the
  failing case seed and a copy-pasteable replay command.
* ``REPRO_PROPTEST_REPLAY=<case-seed>`` replays exactly that one case
  — deterministic shrink-by-replay: rerun the printed command, drop
  into a debugger, bisect the property body, all on one fixed input.
* :func:`mutate_one_byte` is the shared single-byte-mutation generator
  the forgery properties build on, :func:`blob` the random-bytes one;
  structural edits are ``tests/proptest/mutate.py``'s rule table.

All randomness flows through the per-case ``random.Random(case_seed)``
— properties must not consult any other entropy source, or replay
breaks.
"""

from __future__ import annotations

import os
import random
from typing import Callable

#: Fixed default seed: the suite is deterministic run over run unless
#: REPRO_PROPTEST_SEED overrides the base seed.
DEFAULT_SEED = 0xDCE27
#: Cases per property (the `make proptest` default).
DEFAULT_CASES = 25


def case_count(default: int = DEFAULT_CASES) -> int:
    return int(os.environ.get("REPRO_PROPTEST_CASES", default))


def base_seed() -> int:
    return int(os.environ.get("REPRO_PROPTEST_SEED", DEFAULT_SEED))


def _case_seed(base: int, index: int) -> int:
    # Splits the base seed into well-separated per-case seeds (an LCG
    # step, not security-relevant — just avoids overlapping streams).
    return (base * 6364136223846793005 + index * 1442695040888963407) % (2**63)


def _replay_command(case_seed: int) -> str:
    return (
        f"REPRO_PROPTEST_REPLAY={case_seed} "
        "PYTHONPATH=src python -m pytest tests/proptest -q"
    )


def run_cases(
    prop: Callable[[random.Random], None],
    *,
    cases: int | None = None,
    seed: int | None = None,
) -> None:
    """Run ``prop(rng)`` for many independently seeded cases.

    A property passes by returning and fails by raising (assert inside
    it).  The failure message names the case seed and the exact command
    that replays only that case.
    """
    replay = os.environ.get("REPRO_PROPTEST_REPLAY")
    if replay is not None:
        case_seed = int(replay)
        prop(random.Random(case_seed))
        return
    base = seed if seed is not None else base_seed()
    for index in range(cases if cases is not None else case_count()):
        case_seed = _case_seed(base, index)
        try:
            prop(random.Random(case_seed))
        except Exception as exc:
            raise AssertionError(
                f"property {prop.__name__!r} failed on case {index} "
                f"(seed {case_seed}): {exc}\n"
                f"replay just this case with:\n  {_replay_command(case_seed)}"
            ) from exc


def mutate_one_byte(data: bytes, rng: random.Random) -> bytes:
    """Flip one random byte of ``data`` to a different value."""
    assert data, "cannot mutate empty bytes"
    position = rng.randrange(len(data))
    flip = rng.randint(1, 255)
    mutated = bytearray(data)
    mutated[position] ^= flip
    return bytes(mutated)


def blob(rng: random.Random, low: int = 0, high: int = 16) -> bytes:
    """Random bytes, ``low`` to ``high`` of them."""
    return rng.randbytes(rng.randint(low, high))
