"""Counter-based splittable random number streams.

Built on numpy's Philox bit generator: the (seed, stream) pair is folded
into the 128-bit Philox key, so distinct stream ids give statistically
independent sequences and every draw is reproducible from
(seed, stream, position) alone.  Streams are cheap value objects; the
actual generator is created lazily and never shared.  `numpy.random`
itself loads with this module: numpy 2 imports it on first use, and a
run would otherwise pay for that import inside its first walk.
"""

from __future__ import annotations

from dataclasses import dataclass

from numpy.random import Generator, Philox

_MASK64 = (1 << 64) - 1
_SUBSTREAM_SPAN = 1_000_003   # substreams per stream


@dataclass(frozen=True)
class RngStream:
    """Handle naming one reproducible random stream."""

    seed: int
    stream: int = 0

    def __post_init__(self):
        if not (0 <= self.seed <= _MASK64):
            raise ValueError("seed must fit in 64 bits")
        if self.stream < 0:
            raise ValueError("stream id must be nonnegative")

    def generator(self) -> Generator:
        """Fresh generator positioned at the start of this stream."""
        key = (self.seed << 64) | (self.stream & _MASK64)
        # fold any overflow of the stream id back into the key
        key ^= (self.stream >> 64) & _MASK64
        return Generator(Philox(key=key))

    def substream(self, i: int) -> "RngStream":
        """Derived stream i, for 0 <= i < 1_000_003.

        Stream s owns the ids s * 1_000_003 + 1 ... (s + 1) * 1_000_003,
        so substreams of distinct streams never collide.
        """
        if not 0 <= i < _SUBSTREAM_SPAN:
            raise ValueError(
                f"substream index must lie in [0, {_SUBSTREAM_SPAN}), got {i}")
        return RngStream(self.seed, self.stream * _SUBSTREAM_SPAN + i + 1)
