"""Seeded randomized property tests for the lossless index codecs.

Driven by :mod:`tests.proptest` (200 cases per property, shrink on
failure).  Two properties per codec, per the wire-stack contract:

* **Bit-exact roundtrip** — ``decode(encode(x)) == x`` for any 1-D
  int32/int64 vector: sorted or unsorted, empty, single-element,
  duplicate-heavy, or spanning the full dtype range (maximal deltas).
* **Bounded encoded size** — the raw-frame fallback guarantees
  ``encoded_nbytes <= raw_nbytes + FRAME_HEADER_BYTES`` for *any*
  input, so a pathological payload can never inflate wire traffic by
  more than one header.

A third property checks frame concatenation: decoding the
concatenation of per-rank frames yields the rank-order concatenation
of the vectors — the exact composition the allgather relies on.

Two more cover the batched and the hostile side: ``encode_many`` over a
gather's members equals the per-member ``encode`` byte for byte (and
the entropy frames equal a per-bit reference coder kept here), and any
1-2-bit flip or truncation of a mixed multi-frame buffer either decodes
or raises ``ValueError`` — never a ``MemoryError``, ``IndexError`` or
``OverflowError`` from a count the payload cannot hold.
"""

import numpy as np
import pytest

from repro.core.wire import codecs
from repro.core.wire.codecs import (
    FRAME_HEADER_BYTES,
    DeltaBitpackCodec,
    EntropyCodec,
    RunLengthCodec,
    decode_frames,
)

from ..proptest import run_property

N_CASES = 200

_DTYPES = (np.int32, np.int64)


def _gen_vector_case(rng):
    return {
        "n": int(rng.integers(0, 513)),
        "dtype_index": int(rng.integers(0, len(_DTYPES))),
        "shape_kind": int(rng.integers(0, 5)),
        "block": int(rng.integers(1, 257)),
    }


def _make_vector(params: dict, rng) -> np.ndarray:
    """One random index vector in the shape family ``shape_kind`` picks:
    0 = sorted unique Zipf-ish draws, 1 = unsorted draws with
    duplicates, 2 = dense ranges (run-heavy), 3 = full-dtype-range
    extremes (maximal deltas), 4 = constant (all-duplicate)."""
    dtype = np.dtype(_DTYPES[params["dtype_index"]])
    n = params["n"]
    info = np.iinfo(dtype)
    kind = params["shape_kind"]
    if kind == 0:
        v = np.unique(rng.integers(0, 100_000, n).astype(dtype))
    elif kind == 1:
        v = rng.integers(0, max(1, n), n).astype(dtype)
    elif kind == 2:
        start = int(rng.integers(0, 1000))
        v = (start + np.arange(n)).astype(dtype)
    elif kind == 3:
        v = rng.integers(
            int(info.min), int(info.max), n, dtype=np.int64, endpoint=True
        ).astype(dtype)
    else:
        v = np.full(n, int(rng.integers(0, 1000)), dtype=dtype)
    return v


def _codecs(params: dict):
    return (
        DeltaBitpackCodec(block=params["block"]),
        RunLengthCodec(),
        EntropyCodec(),
    )


def _prop_roundtrip(params: dict, rng) -> None:
    vec = _make_vector(params, rng)
    for codec in _codecs(params):
        frame = codec.encode(vec)
        assert frame.dtype == np.uint8, f"{codec.name}: frame not uint8"
        back = codec.decode(frame, vec.dtype)
        assert back.dtype == vec.dtype, (
            f"{codec.name}: dtype {back.dtype} != {vec.dtype}"
        )
        assert np.array_equal(back, vec), (
            f"{codec.name}: roundtrip mismatch on {vec.dtype} shape-kind "
            f"{params['shape_kind']}"
        )


def _prop_size_bound(params: dict, rng) -> None:
    vec = _make_vector(params, rng)
    for codec in _codecs(params):
        frame = codec.encode(vec)
        assert frame.nbytes <= vec.nbytes + FRAME_HEADER_BYTES, (
            f"{codec.name}: {frame.nbytes} bytes for a {vec.nbytes}-byte "
            "input exceeds the raw-fallback bound"
        )


def _prop_concatenation(params: dict, rng) -> None:
    world = 1 + params["shape_kind"]  # reuse the shrinkable small int
    vecs = [_make_vector(params, rng) for _ in range(world)]
    for codec in _codecs(params):
        buf = np.concatenate([codec.encode(v) for v in vecs])
        got = decode_frames(buf, vecs[0].dtype)
        assert np.array_equal(got, np.concatenate(vecs)), (
            f"{codec.name}: concatenated frames did not decode to the "
            "rank-order concatenation"
        )


class TestLosslessRoundtripProperty:
    def test_roundtrip_bit_exact(self):
        assert run_property(_prop_roundtrip, _gen_vector_case, N_CASES) == N_CASES

    def test_encoded_size_bounded(self):
        assert (
            run_property(_prop_size_bound, _gen_vector_case, N_CASES) == N_CASES
        )

    def test_frame_concatenation_composes(self):
        assert (
            run_property(_prop_concatenation, _gen_vector_case, N_CASES)
            == N_CASES
        )


def reference_entropy_frame(arr: np.ndarray) -> bytes:
    """The entropy frame of one vector, coded symbol by symbol, bit by bit.

    The per-array loop the batched ``EntropyCodec.encode_many`` replaced,
    kept as the reference its frames must equal byte for byte.
    """
    dtype = arr.dtype
    if arr.size == 0:
        return codecs._frame_bytes(codecs._KIND_ENTROPY, dtype, 0, b"").tobytes()
    if arr.size == 1:
        return codecs._raw_frame(arr, dtype).tobytes()
    v, zz = codecs._modular_deltas(arr)
    widths = [int(z).bit_length() for z in zz]
    counts = np.bincount(widths, minlength=65)
    lengths = codecs._huffman_code_lengths(counts)
    code_of = {
        sym: (length, code)
        for sym, length, code in codecs._canonical_code_table(lengths)
    }
    bits: list[int] = []
    for z, w in zip(zz.tolist(), widths):
        length, code = code_of[w]
        bits += [(code >> (length - 1 - j)) & 1 for j in range(length)]
        bits += [(z >> (w - 2 - j)) & 1 for j in range(w - 1)]
    payload = (
        np.array([v[0]], dtype="<i8").tobytes()
        + lengths.tobytes()
        + len(bits).to_bytes(8, "little")
        + np.packbits(np.array(bits, dtype=np.uint8)).tobytes()
    )
    if len(payload) >= arr.nbytes:
        return codecs._raw_frame(arr, dtype).tobytes()
    return codecs._frame_bytes(
        codecs._KIND_ENTROPY, dtype, arr.size, payload
    ).tobytes()


def _deep_code_vector() -> np.ndarray:
    """Fibonacci-weighted widths 63..24: a 39-bit Huffman code on the
    rarest width, so code + low bits pass 64 bits (the split-word path)."""
    fib = [1, 1]
    while len(fib) < 40:
        fib.append(fib[-1] + fib[-2])
    deltas = np.concatenate([
        np.full(min(f, 3000), (1 << w) - 1, dtype=np.uint64) >> np.uint64(1)
        for w, f in zip(range(63, 23, -1), fib)
    ])
    return np.cumsum(deltas).view(np.int64)


def _gather(rng, members: int, size: int) -> list[np.ndarray]:
    """A unique-exchange index gather: sorted Zipfian ids per member."""
    return [
        np.sort(rng.zipf(1.2, size=size) % 20_000).astype(np.int64)
        for _ in range(members)
    ]


_I64 = np.iinfo(np.int64)
_EDGE_MEMBERS = [
    np.zeros(0, dtype=np.int64),
    np.array([7], dtype=np.int64),
    np.array([_I64.min, _I64.max], dtype=np.int64),
    np.array([_I64.min, _I64.max] * 20 + list(range(200)), dtype=np.int64),
    np.array([0, 1 << 62, 0, _I64.min, 5] * 30, dtype=np.int64),  # width-64 deltas
    np.array([3, 1, 2, 100_000, -5, 3, 3], dtype=np.int64),
    np.arange(300, dtype=np.int64),
    np.full(64, 9, dtype=np.int64),
]


def _prop_encode_many(params: dict, rng) -> None:
    members = [
        _make_vector(dict(params, n=int(rng.integers(0, params["n"] + 1))), rng)
        for _ in range(1 + params["shape_kind"])
    ]
    for codec in _codecs(params):
        frames = codec.encode_many(members)
        assert [f.tobytes() for f in frames] == [
            codec.encode(m).tobytes() for m in members
        ], f"{codec.name}: encode_many differs from per-member encode"
    assert [f.tobytes() for f in EntropyCodec().encode_many(members)] == [
        reference_entropy_frame(m) for m in members
    ], "entropy frames differ from the per-bit reference coder"


class TestEncodeMany:
    def test_equals_per_member_encode(self):
        assert (
            run_property(_prop_encode_many, _gen_vector_case, N_CASES) == N_CASES
        )

    @pytest.mark.parametrize(
        "members",
        [
            _EDGE_MEMBERS,
            [m.astype(np.int32) for m in _EDGE_MEMBERS[:2] + _EDGE_MEMBERS[5:]],
            [_deep_code_vector(), _deep_code_vector()[:4000]],
            # the two gathers of a word_wire step (output / input embedding)
            _gather(np.random.default_rng(3), 32, 672),
            _gather(np.random.default_rng(4), 32, 160),
        ],
        ids=["edges-int64", "edges-int32", "deep-codes", "32x672", "32x160"],
    )
    def test_edge_members_and_gather_shapes(self, members):
        for codec in (DeltaBitpackCodec(), RunLengthCodec(), EntropyCodec()):
            frames = codec.encode_many(members)
            assert [f.tobytes() for f in frames] == [
                codec.encode(m).tobytes() for m in members
            ]
            assert np.array_equal(
                decode_frames(np.concatenate(frames), members[0].dtype),
                np.concatenate(members),
            )
            for frame, member in zip(frames, members):
                assert frame.nbytes <= member.nbytes + FRAME_HEADER_BYTES
        assert [f.tobytes() for f in EntropyCodec().encode_many(members)] == [
            reference_entropy_frame(m) for m in members
        ]

    def test_split_words_are_exercised(self):
        """The deep-code vector really has a word past 64 bits."""
        frame = EntropyCodec().encode(_deep_code_vector())
        assert frame[0] == codecs._KIND_ENTROPY
        lengths = frame[FRAME_HEADER_BYTES + 8:FRAME_HEADER_BYTES + 8 + 65]
        assert max(int(lengths[w]) + w - 1 for w in range(1, 65) if lengths[w]) > 64


# ---------------------------------------------------------------------------
# hostile input: byte-level mutation of a mixed multi-frame buffer
# ---------------------------------------------------------------------------

def _mixed_buffer(rng) -> tuple[bytes, list[tuple[int, int, int]]]:
    """Raw, delta, rle and entropy frames back to back (int64), with each
    frame's ``(offset, end, kind)``."""
    vectors = [
        rng.integers(_I64.min, _I64.max, 40, dtype=np.int64),       # raw
        np.unique(rng.integers(0, 50_000, 300)).astype(np.int64),   # delta
        np.concatenate([np.arange(100), np.arange(500, 640)]),      # rle
        np.sort(rng.zipf(1.2, size=400) % 20_000).astype(np.int64),  # entropy
        np.full(300, 4, dtype=np.int64),                # zero-width delta
    ]
    encoders = [DeltaBitpackCodec(), DeltaBitpackCodec(), RunLengthCodec(),
                EntropyCodec(), DeltaBitpackCodec()]
    frames = [c.encode(v.astype(np.int64)) for c, v in zip(encoders, vectors)]
    kinds = [int(f[0]) for f in frames]
    assert kinds == [codecs._KIND_RAW, codecs._KIND_DELTA, codecs._KIND_RLE,
                     codecs._KIND_ENTROPY, codecs._KIND_DELTA]
    ends = np.cumsum([f.size for f in frames]).tolist()
    return np.concatenate(frames).tobytes(), list(zip([0] + ends, ends, kinds))


def _gen_mutation_case(rng):
    return {
        "flips": int(rng.integers(0, 3)),       # 0 = truncation only
        "high_bit": int(rng.integers(0, 2)),    # aim a flip at a count field
        "cut": int(rng.integers(0, 2)),
    }


def _prop_mutation(params: dict, rng) -> None:
    original, frames = _mixed_buffer(np.random.default_rng(11))
    buf = bytearray(original)
    for flip in range(params["flips"]):
        if flip == 0 and params["high_bit"]:
            # A high bit of some frame's element count (bytes 2..9).
            offset = frames[int(rng.integers(0, len(frames)))][0]
            byte, bit = offset + int(rng.integers(5, 10)), int(rng.integers(0, 8))
        else:
            byte, bit = int(rng.integers(0, len(buf))), int(rng.integers(0, 8))
        buf[byte] ^= 1 << bit
    if params["cut"] or not params["flips"]:
        del buf[int(rng.integers(0, len(buf))):]
    # Runs (and zero-width delta blocks under a grown block size) may
    # legitimately expand without bound: a count past the cap whose
    # sizing field was hit too is a valid huge frame, not a corrupt one.
    cap = 64 * len(original)
    for offset, end, kind in frames:
        count = int.from_bytes(buf[offset + 2:offset + 10], "little")
        # what sizes the expansion: the block-size field / the run table
        sizing = slice(offset + 10, offset + 14 if kind == codecs._KIND_DELTA else end)
        if (
            count > cap
            and kind in (codecs._KIND_DELTA, codecs._KIND_RLE)
            and buf[sizing] != original[sizing]
        ):
            return
    try:
        out = decode_frames(np.frombuffer(bytes(buf), dtype=np.uint8), np.int64)
    except ValueError:
        return
    except (MemoryError, IndexError, OverflowError) as err:
        raise AssertionError(
            f"decode_frames leaked {type(err).__name__}: {err}"
        ) from err
    assert out.dtype == np.int64 and out.ndim == 1


class TestHostileFrames:
    def test_mutations_decode_or_raise_value_error(self):
        assert run_property(_prop_mutation, _gen_mutation_case, 1500) == 1500

    @pytest.mark.parametrize(
        "codec", [DeltaBitpackCodec(), RunLengthCodec(), EntropyCodec()],
        ids=lambda c: c.name,
    )
    def test_high_count_bit_is_a_value_error(self, codec):
        """One flipped high bit of the element count asked numpy for
        128 PiB; it must be a typed refusal before any allocation."""
        vec = np.concatenate([np.arange(100), np.arange(500, 900)])
        if codec.name == "entropy":
            vec = np.sort(np.random.default_rng(0).zipf(1.2, 400) % 20_000)
        frame = codec.encode(vec.astype(np.int64)).copy()
        assert frame[0] != codecs._KIND_RAW
        frame[9] ^= 0x40  # bit 62 of the u64 count
        with pytest.raises(ValueError, match="corrupt"):
            decode_frames(frame, np.int64)

    def test_oversized_raw_count_is_a_value_error(self):
        frame = DeltaBitpackCodec().encode(
            np.random.default_rng(0).integers(_I64.min, _I64.max, 8, dtype=np.int64)
        ).copy()
        assert frame[0] == codecs._KIND_RAW
        frame[9] ^= 0x80  # count >= 2**63 overflowed numpy's ssize_t
        with pytest.raises(ValueError, match="corrupt raw frame"):
            decode_frames(frame, np.int64)
