"""Values of ``rng.randrange(p)`` drawn faster from the same random stream,
one block of stream words at a time (:class:`_BlockDraws`), leaving ``rng``
where the ``randrange`` calls would have."""

import struct
from itertools import compress

#: stream words per block draw, and blocks per saved state (``getstate`` costs about a block)
_BLOCK_WORDS = 512
_BLOCKS_PER_STATE = 8
_WORDS = struct.Struct(f"<{_BLOCK_WORDS}I")  # a block's bytes as its words


class _BlockDraws:
    """Draws of n values, each the next n values of ``rng.randrange(p)``.

    ``getrandbits(32 m)`` (one call per block of :data:`_BLOCK_WORDS`)
    returns the next m 32-bit words, the first in the lowest bits, and
    ``getrandbits(k)`` for k <= 32 is the top k bits of one word; so the
    top bits of a block's words, less those >= p, are ``randrange(p)``'s
    values, since it draws ``getrandbits(p.bit_length())`` and retries
    while >= p.  Iterating yields ``(draw, skipped)``: each draw that
    ``keep`` passes, with the number it rejected since the last yield, and
    ``(None, skipped)`` for the rest of a block.  ``keep`` gets a block's
    draws as n columns and returns a truth value per draw; None passes all.
    A draw straddling two blocks belongs to the second, and the draws end
    after ``stop``.  ``rng`` runs up to a block ahead: :meth:`sync`
    restores a state saved at most :data:`_BLOCKS_PER_STATE` - 1 blocks
    back and redraws exactly the words used since, which leaves ``rng``
    where the ``randrange`` calls would have after the last yielded draw.
    The partner searches promise that state only when they return; after
    their budget runs out, it is unspecified.
    """

    def __init__(self, rng, p: int, n: int, keep=None, stop: float = float("inf")):
        self.rng, self.p, self.n, self.keep, self.stop = rng, p, n, keep, stop
        self.bound = p << 32 - p.bit_length()  # w >> 32 - k < p exactly when w < bound
        # the saved state, self.behind words before the block; None before a block and once synced
        self.state, self.behind = None, (_BLOCKS_PER_STATE - 1) * _BLOCK_WORDS

    def __iter__(self):
        rng, p, n, keep, bound = self.rng, self.p, self.n, self.keep, self.bound
        shift = 32 - p.bit_length()
        if p < 256:  # translate shifts the top bytes and drops those >= p
            table, drop = bytes(b >> shift - 24 for b in range(256)), bytes(range(bound >> 24, 256))
        carry, left = [], self.stop
        while left:
            if self.behind < (_BLOCKS_PER_STATE - 1) * _BLOCK_WORDS:
                self.behind += _BLOCK_WORDS
            else:
                self.state, self.behind = rng.getstate(), 0
            self.carried = len(carry)
            self.raw = rng.getrandbits(32 * _BLOCK_WORDS).to_bytes(4 * _BLOCK_WORDS, "little")
            if p < 256:
                values = carry + list(self.raw[3::4].translate(table, drop))
            else:
                values = carry + [w >> shift for w in _WORDS.unpack(self.raw) if w < bound]
            full = min(len(values) // n, left)
            left -= full
            carry = values[full * n:]
            columns = (values[j:full * n:n] for j in range(n))
            kept = range(full) if keep is None else compress(range(full), keep(*columns))
            self.end = 0
            for i in kept:
                start, self.end = self.end, i + 1
                yield values[i * n:i * n + n], i - start
            start, self.end = self.end, full
            yield None, full - start

    def sync(self):
        """Leave ``rng`` just after the last yielded draw; later calls do nothing."""
        if self.state is not None:
            kept = [k for k, w in enumerate(_WORDS.unpack(self.raw)) if w < self.bound]
            self.rng.setstate(self.state)
            self.rng.getrandbits(32 * (self.behind + kept[self.end * self.n - 1 - self.carried] + 1))
            self.state = None
