"""Deterministic random-stream derivation.

Every random quantity in the package flows from a single 64-bit base seed.
Independent streams are derived counter-style: stream ``k`` of seed ``s`` is
a Philox generator keyed with the pair ``(s, k)``.  Replicated experiments
use ``base_seed + replicate_index`` as the per-replicate seed, so replicates
can run concurrently and still reproduce bit-for-bit in any order.
"""

from __future__ import annotations

import numpy as np

DEFAULT_SEED = 20170
"""Seed used when none is given: by ``simulate`` without --seed or RDSGLS_SEED,
and by ``gen-graph`` and ``experiment`` without --seed or ``[run] seed``."""

# Stream ids for the distinct random purposes inside one logical task.
STREAM_WALK = 0
STREAM_TREE = 1
STREAM_NETWORK = 2
STREAM_OUTCOME = 3


def derive_rng(seed: int, stream: int = 0, offset: int = 0) -> np.random.Generator:
    """Return the generator for stream ``stream`` of ``seed``.

    With ``offset`` the generator starts ``offset`` 64-bit draws into the
    stream, so ``derive_rng(s, k, offset=o).random(m)`` equals
    ``derive_rng(s, k).random(o + m)[o:]`` (one draw per double).  Philox
    emits four draws per counter step: the counter jumps to ``offset // 4``
    and the remaining ``offset % 4`` draws are discarded.
    """
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(stream)])
    bitgen = np.random.Philox(key=key, counter=offset // 4)
    bitgen.random_raw(offset % 4)
    return np.random.Generator(bitgen)


def as_rng(seed_or_rng, stream: int = 0) -> np.random.Generator:
    """Coerce an int seed or an existing Generator into a Generator.

    Passing a Generator returns it unchanged (the stream id is ignored);
    an int is routed through :func:`derive_rng`.
    """
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return derive_rng(int(seed_or_rng), stream)
