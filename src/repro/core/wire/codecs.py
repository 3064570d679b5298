"""Lossless integer codecs for the index ALLGATHER wire format.

The paper's §III-C compression halves *value* traffic with FP16, but the
Θ(G·K) index ALLGATHER of the uniqueness exchange (§III-A) still ships
raw int64 word indices.  Sorted unique Zipf indices are extremely
compressible: consecutive deltas are tiny (most fit in a few bits) and
dense index ranges collapse into runs.  The codecs here exploit exactly
that, with **bit-exact** roundtrip guarantees — ``decode(encode(x))``
equals ``x`` bit for bit, for any 1-D int32/int64 input, sorted or not.

Frame format
------------
Every ``encode`` produces a *self-delimiting* uint8 frame::

    byte 0      frame kind (1 = raw, 2 = delta-bitpack, 3 = run-length,
                4 = entropy)
    byte 1      dtype code (0 = int32, 1 = int64)
    bytes 2-9   element count n (u64, little-endian)
    payload     kind-specific, parseable given the header

Self-delimitation is what makes the codecs compose with allgatherv
semantics: the collective concatenates per-rank frames into one uint8
buffer, and :func:`decode_frames` walks the frames back out — so the
decoded result is exactly the rank-order concatenation of the original
per-rank vectors, with per-rank boundaries preserved.

Payloads
--------
* **raw** — the input bytes verbatim (little-endian).  Every codec falls
  back to a raw frame when its encoding would not beat it, which yields
  the hard bound ``encoded_nbytes <= raw_nbytes + FRAME_HEADER_BYTES``.
* **delta-bitpack** — block size as 4 bytes, first value as 8 bytes,
  then the zigzag-encoded deltas of consecutive elements, bit-packed in
  blocks whose width is chosen from each block's largest delta.  The
  block size rides in the payload so frames decode regardless of which
  ``DeltaBitpackCodec(block=...)`` produced them.  Deltas are taken in
  modular uint64 arithmetic, so unsorted inputs and maximal-span int64
  pairs (``[int64.min, int64.max]``) roundtrip exactly.
* **run-length** — ``(start, length)`` pairs for maximal runs of
  consecutive ``+1`` increments; ideal for dense index ranges.
* **entropy** — canonical Huffman over the *bit-widths* of the zigzag
  modular deltas, followed by each delta's raw low bits (top bit
  implicit).  Width symbols concentrate the skew of a Zipf-sorted index
  vector into a few-bit prefix code, beating fixed per-block widths
  because every delta pays only its own width plus ~H(width) bits.

Neither codec sorts: both are order-preserving, and the *caller* decides
whether sorting is safe (the unique exchange sorts before encoding
because ``np.unique`` downstream is order-insensitive; the baseline
allgather must not, since index order pairs with value rows).
"""

from __future__ import annotations

import heapq
from collections.abc import Sequence

import numpy as np

from ..compression import WireCodec

__all__ = [
    "DELTA_BLOCK",
    "FRAME_HEADER_BYTES",
    "DeltaBitpackCodec",
    "EntropyCodec",
    "LosslessIntCodec",
    "RunLengthCodec",
    "decode_frames",
]

#: Bytes of the per-frame header (kind + dtype code + element count).
FRAME_HEADER_BYTES = 10

#: Deltas per bit-packing block; each block stores one width byte.
#: Small blocks adapt the width to Zipf's skew — a sorted word-LM index
#: vector packs its dense head at a few bits while the sparse tail's
#: huge deltas stay confined to their own blocks.  128 roughly doubles
#: the measured reduction on 1B-Word-shaped payloads vs 1024, at less
#: than 1% width-byte overhead.
DELTA_BLOCK = 128

_KIND_RAW = 1
_KIND_DELTA = 2
_KIND_RLE = 3
_KIND_ENTROPY = 4

#: Width symbols for the entropy codec: bit_length of a zigzag delta,
#: an integer in [0, 64].
_N_WIDTH_SYMBOLS = 65

_DTYPE_CODES = {np.dtype(np.int32): 0, np.dtype(np.int64): 1}
_CODE_DTYPES = {code: dt for dt, code in _DTYPE_CODES.items()}

_U64_ONE = np.uint64(1)
_U64_ZERO = np.uint64(0)
_U64_ALL = np.uint64(0xFFFFFFFFFFFFFFFF)
#: 2**0 .. 2**63: a value's bit_length is how many of these it reaches.
_POW2 = _U64_ONE << np.arange(64, dtype=np.uint64)


def _check_input(arr: np.ndarray) -> np.dtype:
    """Validate a codec input; return its dtype."""
    if not isinstance(arr, np.ndarray):
        raise ValueError(f"codec input must be an ndarray, got {type(arr).__name__}")
    if arr.ndim != 1:
        raise ValueError(f"index codecs take 1-D arrays, got shape {arr.shape}")
    if arr.dtype not in _DTYPE_CODES:
        raise ValueError(
            f"index codecs take int32/int64 arrays, got {arr.dtype}"
        )
    return arr.dtype


def _header(kind: int, dtype: np.dtype, n: int) -> bytes:
    return bytes([kind, _DTYPE_CODES[dtype]]) + int(n).to_bytes(8, "little")


def _zigzag(signed: np.ndarray) -> np.ndarray:
    """Map int64 to uint64 so small-magnitude values get small codes."""
    u = signed.view(np.uint64)
    mask = np.where(signed < 0, _U64_ALL, _U64_ZERO)
    return (u << _U64_ONE) ^ mask


def _unzigzag(zz: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_zigzag`; returns the uint64 bit pattern."""
    mask = _U64_ZERO - (zz & _U64_ONE)
    return (zz >> _U64_ONE) ^ mask


def _pack_low_bits(vals: np.ndarray, width: int) -> np.ndarray:
    """Pack the low ``width`` bits of each uint64 into a byte stream."""
    bits = np.unpackbits(
        vals.astype(">u8", copy=False).view(np.uint8).reshape(-1, 8), axis=1
    )
    return np.packbits(bits[:, 64 - width:])


def _unpack_low_bits(buf: np.ndarray, n: int, width: int) -> np.ndarray:
    """Inverse of :func:`_pack_low_bits` for ``n`` packed values."""
    if width == 0:
        return np.zeros(n, dtype=np.uint64)
    bits = np.unpackbits(buf, count=n * width).reshape(n, width)
    full = np.zeros((n, 64), dtype=np.uint8)
    full[:, 64 - width:] = bits
    return np.packbits(full.reshape(-1)).view(">u8").astype(np.uint64)


def _modular_deltas(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(int64 view of the values, zigzagged modular consecutive deltas)."""
    v = np.ascontiguousarray(arr.astype(np.int64, copy=False))
    u = v.view(np.uint64)
    du = u[1:] - u[:-1]  # wraps mod 2**64: exact for any int64 span
    return v, _zigzag(du.view(np.int64))


def _frame_bytes(kind: int, dtype: np.dtype, n: int, payload: bytes) -> np.ndarray:
    return np.frombuffer(_header(kind, dtype, n) + payload, dtype=np.uint8)


def _raw_frame(arr: np.ndarray, dtype: np.dtype) -> np.ndarray:
    payload = np.ascontiguousarray(arr, dtype=dtype.newbyteorder("<")).tobytes()
    return _frame_bytes(_KIND_RAW, dtype, arr.size, payload)


class LosslessIntCodec(WireCodec):
    """Base class for the self-delimiting lossless integer codecs.

    Subclasses implement ``encode``; ``decode`` is shared because every
    frame carries its own kind byte — a buffer may even mix frames from
    different codecs (as a chunked or mixed-codec gather produces).
    """

    #: Roundtrip is bit-exact; the sanitizer can verify it cheaply.
    lossless = True
    #: Encoded size depends on the data, not just the dtype.
    data_dependent = True

    def decode(self, arr: np.ndarray, dtype: np.dtype) -> np.ndarray:
        """Decode a (possibly multi-frame) uint8 buffer back to indices."""
        return decode_frames(arr, dtype)

    def estimate_nbytes(self, arr: np.ndarray, sample: int = 1024) -> int:
        """Cheap encoded-size estimate from a strided sorted sample.

        Used by the adaptive selector's crossover model.  Sampling every
        ``stride``-th element of the sorted input multiplies typical
        deltas by ``stride``, so the estimate is conservative (it
        over-states the encoded size); the hard raw-fallback bound caps
        it either way.
        """
        _check_input(arr)
        if arr.size <= 1:
            return FRAME_HEADER_BYTES + arr.nbytes
        stride = max(1, arr.size // sample)
        probe = np.sort(arr[::stride])
        est = self.encode(probe).size / probe.size * arr.size
        return int(min(est, FRAME_HEADER_BYTES + arr.nbytes))


class DeltaBitpackCodec(LosslessIntCodec):
    """Sort-free delta + per-block bit-packing (the unique-index codec).

    Encodes consecutive differences (zigzagged, modular-uint64) with a
    per-block bit width chosen from the block's largest delta, so sorted
    Zipf index vectors — whose deltas are overwhelmingly tiny — pack
    into a few bits per index instead of 64.  Falls back to a raw frame
    whenever packing would not beat the input bytes.

    Parameters
    ----------
    block:
        Deltas per packing block (one width byte each).  Smaller blocks
        adapt faster to mixed-magnitude deltas at one byte per block of
        overhead.
    """

    def __init__(self, block: int = DELTA_BLOCK):
        if block <= 0:
            raise ValueError("block must be positive")
        self.block = int(block)

    @property
    def name(self) -> str:
        """Short stable name used in registries and ledger scopes."""
        return "delta"

    def encode(self, arr: np.ndarray) -> np.ndarray:
        """Encode one index vector into a self-delimiting uint8 frame."""
        dtype = _check_input(arr)
        n = arr.size
        if n == 0:
            return _frame_bytes(_KIND_DELTA, dtype, 0, b"")
        v, zz = _modular_deltas(arr)
        chunks: list[bytes] = [
            int(self.block).to_bytes(4, "little"),
            np.array([v[0]], dtype="<i8").tobytes(),
        ]
        for start in range(0, zz.size, self.block):
            blk = zz[start:start + self.block]
            width = int(blk.max()).bit_length()
            chunks.append(bytes([width]))
            if width:
                chunks.append(_pack_low_bits(blk, width).tobytes())
        payload = b"".join(chunks)
        if len(payload) >= arr.nbytes:
            return _raw_frame(arr, dtype)
        return _frame_bytes(_KIND_DELTA, dtype, n, payload)


class RunLengthCodec(LosslessIntCodec):
    """Run-length codec for contiguous index ranges.

    Encodes maximal runs of consecutive ``+1`` increments as
    ``(start, length)`` pairs — 16 bytes per run regardless of run
    length, so dense index ranges (e.g. a saturated vocabulary head)
    collapse to almost nothing.  Falls back to a raw frame when the
    input is run-poor.
    """

    @property
    def name(self) -> str:
        """Short stable name used in registries and ledger scopes."""
        return "rle"

    def encode(self, arr: np.ndarray) -> np.ndarray:
        """Encode one index vector into a self-delimiting uint8 frame."""
        dtype = _check_input(arr)
        n = arr.size
        if n == 0:
            return _frame_bytes(_KIND_RLE, dtype, 0, b"")
        v = np.ascontiguousarray(arr.astype(np.int64, copy=False))
        u = v.view(np.uint64)
        breaks = np.flatnonzero((u[1:] - u[:-1]) != _U64_ONE)
        run_starts = np.concatenate(([0], breaks + 1))
        run_lengths = np.diff(np.concatenate((run_starts, [n])))
        n_runs = run_starts.size
        payload_size = 8 + 16 * n_runs
        if payload_size >= arr.nbytes:
            return _raw_frame(arr, dtype)
        payload = (
            int(n_runs).to_bytes(8, "little")
            + v[run_starts].astype("<i8", copy=False).tobytes()
            + run_lengths.astype("<u8").tobytes()
        )
        return _frame_bytes(_KIND_RLE, dtype, n, payload)

    def estimate_nbytes(self, arr: np.ndarray, sample: int = 1024) -> int:
        """Cheap encoded-size estimate from a contiguous prefix slice.

        A strided sample would destroy runs, so the run density is
        measured on ``arr[:sample]`` and extrapolated.
        """
        _check_input(arr)
        if arr.size <= 1:
            return FRAME_HEADER_BYTES + arr.nbytes
        probe = np.sort(arr[: int(sample)])
        est = self.encode(probe).size / probe.size * arr.size
        return int(min(est, FRAME_HEADER_BYTES + arr.nbytes))


def _delta_bit_lengths(zz: np.ndarray) -> np.ndarray:
    """Per-delta ``bit_length`` (0..64) of zigzagged uint64 deltas."""
    return np.searchsorted(_POW2, zz, side="right").astype(np.uint8)


def _huffman_code_lengths(counts: np.ndarray) -> np.ndarray:
    """Huffman code lengths per symbol (0 for absent symbols).

    Deterministic: ties in the merge heap break on insertion order, so
    identical inputs yield identical tables on every rank.  A lone
    symbol gets length 1 (the code ``0``).
    """
    syms = np.flatnonzero(counts).tolist()
    lengths = [0] * counts.size
    if len(syms) == 1:
        lengths[syms[0]] = 1
    heap: list[tuple[int, int, list[int]]] = [
        (int(counts[s]), i, [s]) for i, s in enumerate(syms)
    ]
    heapq.heapify(heap)
    tie = len(heap)
    while len(heap) > 1:
        fa, _, sa = heapq.heappop(heap)
        fb, _, sb = heapq.heappop(heap)
        merged = sa + sb
        for s in merged:
            lengths[s] += 1
        heapq.heappush(heap, (fa + fb, tie, merged))
        tie += 1
    return np.array(lengths, dtype=np.uint8)


def _canonical_code_table(
    lengths: np.ndarray,
) -> list[tuple[int, int, int]]:
    """Canonical codes from code lengths: ``(symbol, length, code)``.

    Symbols sort by (length, symbol); codes count up within a length
    and left-shift on every length increase — the standard canonical
    construction, so the 65-byte length table alone reproduces the
    codebook at decode time.
    """
    order = sorted((int(L), s) for s, L in enumerate(lengths) if L)
    table: list[tuple[int, int, int]] = []
    code = -1
    prev_len = 0
    for length, sym in order:
        code = (code + 1) << (length - prev_len)
        prev_len = length
        table.append((sym, length, code))
    return table


class EntropyCodec(LosslessIntCodec):
    """Canonical-Huffman entropy coder over delta bit-widths.

    The delta-bitpack codec spends one width per *block*; this codec
    spends a Huffman code per *delta*, coding each delta as its width
    symbol followed by ``width - 1`` raw low bits (the top bit of a
    ``width``-bit value is implicitly 1).  On Zipf-sorted unique index
    vectors the width distribution is sharply peaked, so the per-delta
    cost approaches ``H(width) + E[width - 1]`` bits — measurably below
    the per-block packed width.  Falls back to a raw frame whenever the
    coded payload would not beat the input bytes, preserving the
    ``encoded <= raw + FRAME_HEADER_BYTES`` bound.

    Payload layout (after the shared frame header)::

        8 bytes    first value (<i8)
        65 bytes   canonical code lengths for width symbols 0..64
        8 bytes    bitstream length in bits (u64, little-endian)
        k bytes    packed bitstream (``np.packbits`` bit order)
    """

    @property
    def name(self) -> str:
        """Short stable name used in registries and ledger scopes."""
        return "entropy"

    def encode(self, arr: np.ndarray) -> np.ndarray:
        """Encode one index vector into a self-delimiting uint8 frame."""
        return self.encode_many([arr])[0]

    def encode_many(self, arrays: Sequence[np.ndarray]) -> list[np.ndarray]:
        """Encode every member of a gather in one pass; one frame each.

        The members' zigzag deltas are classified, coded and bit-packed
        as one concatenated run — each member keeps its own Huffman
        table, and a pad word byte-aligns its bits so the single
        ``packbits`` splits back into per-member payloads.
        """
        frames: list[np.ndarray | None] = []
        coded: list[int] = []  # members with at least one delta
        for m, arr in enumerate(arrays):
            dtype = _check_input(arr)
            if arr.size == 0:
                frames.append(_frame_bytes(_KIND_ENTROPY, dtype, 0, b""))
            elif arr.size == 1:
                # No deltas to code; the 81-byte payload floor always loses.
                frames.append(_raw_frame(arr, dtype))
            else:
                frames.append(None)
                coded.append(m)
        if not coded:
            return frames
        sizes = np.array([arrays[m].size for m in coded], dtype=np.int64)
        u = np.concatenate(
            [arrays[m].astype(np.int64, copy=False) for m in coded]
        ).view(np.uint64)
        firsts = np.cumsum(sizes) - sizes  # each member's first value in u
        keep = np.ones(u.size, dtype=bool)
        keep[firsts] = False  # a delta never spans two members
        du = (u[1:] - u[:-1])[keep[1:]]  # wraps mod 2**64, as _modular_deltas
        zz = _zigzag(du.view(np.int64))
        widths = _delta_bit_lengths(zz)
        starts = firsts - np.arange(sizes.size)  # first delta of each member
        member = np.repeat(np.arange(sizes.size), sizes - 1)
        counts = np.bincount(
            member * _N_WIDTH_SYMBOLS + widths,
            minlength=sizes.size * _N_WIDTH_SYMBOLS,
        ).reshape(-1, _N_WIDTH_SYMBOLS)
        lengths = np.zeros(counts.shape, dtype=np.uint8)
        codes = np.zeros(counts.shape, dtype=np.uint64)
        for r, row in enumerate(counts):
            lengths[r] = _huffman_code_lengths(row)
            for sym, _length, code in _canonical_code_table(lengths[r]):
                codes[r, sym] = code
        # One word per delta: its width's code, then the width-1 low
        # bits (the top bit is implied).  A word past 64 bits (a maximal
        # int64 span under a deep code) splits into code and low bits.
        code_bits = lengths[member, widths].astype(np.int64)
        low_bits = np.maximum(widths, 1).astype(np.int64) - 1
        low_u = low_bits.astype(np.uint64)
        low = zz & ((_U64_ONE << low_u) - _U64_ONE)
        wide = code_bits + low_bits > 64
        slots = 1 + wide
        # Word slots in stream order, one pad slot closing each member.
        at = np.cumsum(slots) - slots + member
        words = np.zeros(int(slots.sum()) + sizes.size, dtype=np.uint64)
        nbits = np.zeros(words.size, dtype=np.int64)
        code = codes[member, widths]
        words[at] = np.where(wide, code, (code << low_u) | low)
        nbits[at] = np.where(wide, code_bits, code_bits + low_bits)
        words[at[wide] + 1] = low[wide]
        nbits[at[wide] + 1] = low_bits[wide]
        total_bits = np.add.reduceat(code_bits + low_bits, starts)
        pads = np.append(at[starts[1:]] - 1, words.size - 1)
        nbits[pads] = -total_bits % 8
        # Emit every word's low ``nbits`` with one unpack / select / pack,
        # over no more bytes per word than the longest word needs.
        span = max(1, -(-int(nbits.max()) // 8))
        bits = np.unpackbits(
            words.astype(">u8").view(np.uint8).reshape(-1, 8)[:, 8 - span:],
            axis=1,
        )
        packed = np.packbits(
            bits[np.arange(8 * span) >= (8 * span - nbits)[:, None]]
        )
        ends = np.cumsum((total_bits + 7) // 8)
        for r, m in enumerate(coded):
            arr = arrays[m]
            payload = (
                u[firsts[r]:firsts[r] + 1].astype("<u8").tobytes()
                + lengths[r].tobytes()
                + int(total_bits[r]).to_bytes(8, "little")
                + packed[ends[r - 1] if r else 0:ends[r]].tobytes()
            )
            if len(payload) >= arr.nbytes:
                frames[m] = _raw_frame(arr, arr.dtype)
            else:
                frames[m] = _frame_bytes(
                    _KIND_ENTROPY, arr.dtype, arr.size, payload
                )
        return frames


def _decode_delta_payload(
    raw: bytes, offset: int, n: int
) -> tuple[np.ndarray, int]:
    """Decode a delta-bitpack payload; return (uint64 values, new offset)."""
    block = int.from_bytes(raw[offset:offset + 4], "little")
    offset += 4
    if block <= 0:
        raise ValueError(f"corrupt delta frame: block size {block}")
    first = np.frombuffer(raw, dtype="<i8", count=1, offset=offset)
    offset += 8
    # Walk the block headers before allocating: the count is only
    # trusted once every block's width byte and packed bits lie inside
    # the buffer (each block costs at least its width byte).
    blocks: list[tuple[int, int, np.ndarray]] = []
    done = 0
    while done < n - 1:
        blk_n = min(block, n - 1 - done)
        width = raw[offset] if offset < len(raw) else 65
        nbytes = (blk_n * width + 7) // 8
        if width > 64 or offset + 1 + nbytes > len(raw):
            raise ValueError(
                f"corrupt delta frame: block of {blk_n} deltas at byte "
                f"{offset} does not fit the buffer ({n} elements claimed)"
            )
        packed = np.frombuffer(raw, np.uint8, count=nbytes, offset=offset + 1)
        blocks.append((blk_n, width, packed))
        offset += 1 + nbytes
        done += blk_n
    deltas = np.empty(n - 1, dtype=np.uint64)
    done = 0
    for blk_n, width, packed in blocks:
        deltas[done:done + blk_n] = _unpack_low_bits(packed, blk_n, width)
        done += blk_n
    u = np.empty(n, dtype=np.uint64)
    u[0] = first.astype(np.int64)[0:1].view(np.uint64)[0]
    if n > 1:
        np.cumsum(_unzigzag(deltas), out=u[1:])
        u[1:] += u[0]
    return u, offset


def _decode_rle_payload(raw: bytes, offset: int, n: int) -> tuple[np.ndarray, int]:
    """Decode a run-length payload; return (uint64 values, new offset)."""
    n_runs = int.from_bytes(raw[offset:offset + 8], "little")
    offset += 8
    if n_runs < 1 or offset + 16 * n_runs > len(raw):
        raise ValueError(
            f"corrupt rle frame: {n_runs} runs do not fit the "
            f"{max(len(raw) - offset, 0)} payload bytes left"
        )
    starts = np.frombuffer(raw, dtype="<i8", count=n_runs, offset=offset)
    offset += 8 * n_runs
    lengths = np.frombuffer(raw, dtype="<u8", count=n_runs, offset=offset)
    offset += 8 * n_runs
    # Runs may legitimately expand without bound, but they must add up:
    # the scatter below indexes by their running sum.
    if 0 in lengths or sum(lengths.tolist()) != n:
        raise ValueError(
            f"corrupt rle frame: run lengths do not sum to {n} elements"
        )
    su = starts.astype(np.int64).view(np.uint64)
    lu = lengths.astype(np.uint64)
    steps = np.ones(n, dtype=np.uint64)
    steps[0] = su[0]
    if n_runs > 1:
        firsts = np.cumsum(lu)[:-1].astype(np.intp)
        steps[firsts] = su[1:] - (su[:-1] + lu[:-1] - _U64_ONE)
    return np.cumsum(steps), offset


#: Most bits the entropy decoder's first-level table probe resolves.
_PROBE_BITS = 12
#: Bytes the entropy decoder pulls into its bit window per refill.
_REFILL_BYTES = 16


def _decode_entropy_payload(
    raw: bytes, offset: int, n: int
) -> tuple[np.ndarray, int]:
    """Decode an entropy payload; return (uint64 values, new offset)."""
    first = np.frombuffer(raw, dtype="<i8", count=1, offset=offset)
    offset += 8
    lengths = np.frombuffer(
        raw, dtype=np.uint8, count=_N_WIDTH_SYMBOLS, offset=offset
    )
    offset += _N_WIDTH_SYMBOLS
    nbits = int.from_bytes(raw[offset:offset + 8], "little")
    offset += 8
    end = offset + (nbits + 7) // 8
    # Every delta costs at least one code bit: a count the stream cannot
    # hold is corrupt, and must not size an allocation.
    if end > len(raw) or n - 1 > nbits:
        raise ValueError(
            f"corrupt entropy frame: {n} elements / {nbits} stream bits "
            f"do not fit the {len(raw) - offset} payload bytes left"
        )
    table = _canonical_code_table(lengths)
    if n > 1 and not table:
        raise ValueError("corrupt entropy frame: empty codebook")
    # A width-``sym`` delta is an implied top bit over ``sym - 1`` low
    # bits: per symbol, (bits to consume, low-bit mask, top bit).
    def entry(sym: int, length: int) -> tuple[int, int, int]:
        top = 1 << (sym - 1) if sym else 0
        return length + max(sym - 1, 0), max(top - 1, 0), top

    # First level: the next ``probe_bits`` bits index straight to the
    # entry of every code that short; longer codes (and only those) go
    # through the (length, code) dict.  Filled longest first, so the
    # shortest matching prefix wins a slot.
    max_len = max((length for _, length, _ in table), default=0)
    probe_bits = max(1, min(max_len, _PROBE_BITS))
    probe_mask = (1 << probe_bits) - 1
    probe: list = [None] * (1 << probe_bits)
    deep: dict[tuple[int, int], tuple[int, int, int]] = {}
    for sym, length, code in reversed(table):
        if length > probe_bits:
            deep[(length, code)] = entry(sym, length)
        elif code < 1 << length:
            pad = probe_bits - length
            probe[code << pad:(code + 1) << pad] = [entry(sym, length)] * (1 << pad)
    # The window holds the stream's next ``avail`` bits and is topped up
    # a few bytes at a time — shifting the whole stream as one big
    # integer would make the decode quadratic.  Past the stream's end it
    # reads zeros; ``pos`` against ``nbits`` reports any overrun.
    low_water = max_len + 64
    window = avail = pos = 0
    zz: list[int] = []
    for _ in range(n - 1):
        while avail < low_water:
            chunk = raw[offset:min(offset + _REFILL_BYTES, end)]
            offset += len(chunk)
            window = (
                (window & ((1 << avail) - 1)) << 8 * _REFILL_BYTES
            ) | int.from_bytes(chunk.ljust(_REFILL_BYTES, b"\0"), "big")
            avail += 8 * _REFILL_BYTES
        hit = probe[(window >> (avail - probe_bits)) & probe_mask]
        if hit is None:
            for k in range(probe_bits + 1, max_len + 1):
                hit = deep.get((k, (window >> (avail - k)) & ((1 << k) - 1)))
                if hit is not None:
                    break
            else:  # no code matches: the stream runs out first
                raise ValueError("corrupt entropy frame: truncated bitstream")
        take, mask, top = hit
        pos += take
        avail -= take
        zz.append(((window >> avail) & mask) | top)
    if pos > nbits:
        raise ValueError("corrupt entropy frame: truncated bitstream")
    if pos != nbits:
        raise ValueError("corrupt entropy frame: trailing bits")
    u = np.empty(n, dtype=np.uint64)
    u[0] = first.astype(np.int64)[0:1].view(np.uint64)[0]
    if n > 1:
        np.cumsum(_unzigzag(np.array(zz, dtype=np.uint64)), out=u[1:])
        u[1:] += u[0]
    return u, end


def decode_frames(arr: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """Decode a concatenation of frames back into one index vector.

    ``arr`` is the uint8 buffer an allgather of per-rank frames yields;
    the result is the rank-order concatenation of the original vectors.
    ``dtype`` must match the dtype recorded in every frame — a mismatch
    means the caller lost track of what was encoded, which is an error,
    not a cast.
    """
    if arr.dtype != np.uint8:
        raise ValueError(f"expected a uint8 frame buffer, got {arr.dtype}")
    want = np.dtype(dtype)
    if want not in _DTYPE_CODES:
        raise ValueError(f"frames hold int32/int64 indices, not {want}")
    raw = arr.tobytes()
    parts: list[np.ndarray] = []
    offset = 0
    while offset < len(raw):
        if offset + FRAME_HEADER_BYTES > len(raw):
            raise ValueError("truncated frame header")
        kind = raw[offset]
        frame_dtype = _CODE_DTYPES.get(raw[offset + 1])
        if frame_dtype is None:
            raise ValueError(f"unknown frame dtype code {raw[offset + 1]}")
        if frame_dtype != want:
            raise ValueError(
                f"frame holds {frame_dtype} but decode asked for {want}"
            )
        n = int.from_bytes(raw[offset + 2:offset + 10], "little")
        offset += FRAME_HEADER_BYTES
        if n == 0:
            parts.append(np.zeros(0, dtype=want))
            continue
        if kind == _KIND_RAW:
            count_bytes = n * want.itemsize
            if offset + count_bytes > len(raw):
                raise ValueError(
                    f"corrupt raw frame: {n} elements do not fit the "
                    f"{len(raw) - offset} payload bytes left"
                )
            vals = np.frombuffer(
                raw, dtype=want.newbyteorder("<"), count=n, offset=offset
            ).astype(want, copy=False)
            offset += count_bytes
        elif kind == _KIND_DELTA:
            u, offset = _decode_delta_payload(raw, offset, n)
            vals = u.view(np.int64).astype(want, copy=False)
        elif kind == _KIND_RLE:
            u, offset = _decode_rle_payload(raw, offset, n)
            vals = u.view(np.int64).astype(want, copy=False)
        elif kind == _KIND_ENTROPY:
            u, offset = _decode_entropy_payload(raw, offset, n)
            vals = u.view(np.int64).astype(want, copy=False)
        else:
            raise ValueError(f"unknown frame kind {kind}")
        parts.append(np.ascontiguousarray(vals))
    if not parts:
        return np.zeros(0, dtype=want)
    return np.concatenate(parts)
