"""Property test: a mutated checkpoint is rejected by name or loads as its own bytes.

Each example takes the bytes of one of ``canonical_checkpoints()`` (one
without adapters, two with; each embeds a vocabulary) and applies one
mutation: a bit flip, a truncation, inserted bytes, a forged 8-byte extent
or a deletion. ``checkpoint_from_bytes`` must then raise ``CheckpointError``
or return a checkpoint whose ``checkpoint_bytes`` are the mutated bytes, so
that its ``content_hash()`` is the sha256 of the file it came from. A
payload bit flip that stays finite is accepted by design (no checksum; see
the ``pipeline`` docstring). Hypothesis runs derandomized, so the examples
are a pure function of the tree.
"""

import functools
import struct

from hypothesis import given, settings, strategies as st

from metaphrase import pipeline as pl
from test_pipeline import canonical_checkpoints, split_records


@functools.cache
def blobs() -> tuple[bytes, ...]:
    return tuple(pl.checkpoint_bytes(c) for c in canonical_checkpoints())


@functools.cache
def layout(index: int) -> tuple[list[int], list[int]]:
    """(offsets of every byte outside the payloads, offsets of the extent fields)."""
    blob = blobs()[index]
    header, records = split_records(blob)
    structure, extents = list(range(len(header))), []
    at = len(header)
    for record in records:
        name_len = int.from_bytes(record[:4], "little")
        rank = record[4 + name_len]
        fields = 4 + name_len + 1 + 8 * rank
        structure += range(at, at + fields)
        extents += range(at + fields - 8 * rank, at + fields, 8)
        at += len(record)
    return structure, extents


@st.composite
def mutated_checkpoints(draw) -> bytes:
    index = draw(st.integers(0, len(blobs()) - 1))
    blob = blobs()[index]
    structure, extents = layout(index)
    # Half the positions fall on the header and record fields, which make up
    # a few percent of the bytes.
    at = draw(st.one_of(st.sampled_from(structure), st.integers(0, len(blob) - 1)))
    kind = draw(st.sampled_from(["flip", "truncate", "insert", "extent", "delete"]))
    if kind == "flip":
        return blob[:at] + bytes([blob[at] ^ (1 << draw(st.integers(0, 7)))]) + blob[at + 1:]
    if kind == "truncate":
        return blob[:at]
    if kind == "insert":
        return blob[:at] + draw(st.binary(min_size=1, max_size=16)) + blob[at:]
    if kind == "extent":
        at = draw(st.sampled_from(extents))
        extent = draw(st.one_of(st.sampled_from([0, 1, 2, 2**31, 2**32, 2**62, 2**64 - 1]),
                                st.integers(0, 2**64 - 1)))
        return blob[:at] + struct.pack("<Q", extent) + blob[at + 8:]
    return blob[:at] + blob[at + draw(st.integers(1, 16)):]


@settings(derandomize=True, database=None, max_examples=1000, deadline=None)
@given(mutated_checkpoints())
def test_mutated_checkpoint_is_rejected_by_name_or_roundtrips(blob):
    try:
        loaded = pl.checkpoint_from_bytes(blob)
    except pl.CheckpointError:
        return
    assert pl.checkpoint_bytes(loaded) == blob
