"""Checkpointing the maintained semi-external state.

A maintenance service holding ``core``/``cnt`` for a billion-node graph
cannot afford to recompute them after a restart (the seeding run is the
expensive part).  A checkpoint stores both arrays plus a fingerprint of
the graph they describe; :func:`load_checkpoint` refuses to resume
against a graph whose shape changed while the service was down.

This codec lives in :mod:`repro.storage` (not under ``repro.core``)
because it opens files: ``repro/core/`` is inside the charged-I/O
boundary enforced by ``repro lint`` (rule IO001), where every byte read
or written must pass through the block device so ``IOStats`` stays an
honest reproduction of the paper's I/O model.  Checkpoint bytes are
service bookkeeping, deliberately *outside* the model, so the codec
sits with the rest of the uncharged persistence code.

Format: a 32-byte header (magic, version, n, arc count) followed by the
two ``int32`` arrays back to back, then (format v2) a trailing CRC32 of
the payload -- a flipped bit anywhere in the arrays is detected instead
of silently resuming from wrong coreness.  v1 files (no trailing CRC)
are still readable.
"""

from __future__ import annotations

import struct
import zlib
from array import array

from repro.errors import CorruptStorageError

_MAGIC = b"RPRSTAT1"
_HEADER = struct.Struct("<8sIQQ4x")
_CRC = struct.Struct("<I")
#: v1: header + arrays.  v2: header + arrays + CRC32(arrays).
_VERSION = 2
_MIN_VERSION = 1


def save_checkpoint(path, graph, cores, cnt):
    """Persist ``core``/``cnt`` for ``graph`` to ``path``."""
    n = graph.num_nodes
    if len(cores) != n or len(cnt) != n:
        raise ValueError(
            "arrays (%d/%d entries) do not match n=%d"
            % (len(cores), len(cnt), n)
        )
    core_arr = array("i", cores)
    cnt_arr = array("i", cnt)
    payload = core_arr.tobytes() + cnt_arr.tobytes()
    with open(path, "wb") as handle:
        handle.write(_HEADER.pack(_MAGIC, _VERSION, n, graph.num_arcs))
        handle.write(payload)
        handle.write(_CRC.pack(zlib.crc32(payload) & 0xFFFFFFFF))


def load_checkpoint(path, graph=None):
    """Load ``(cores, cnt)``; verifies the fingerprint when given a graph.

    Raises :class:`CorruptStorageError` on format problems, a payload
    checksum mismatch (v2 files), or when the graph's node/arc counts
    disagree with the checkpoint.  Errors carry the checkpoint ``path``
    (and the damage ``offset`` where known) as structured attributes.
    """
    with open(path, "rb") as handle:
        header = handle.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise CorruptStorageError(
                "checkpoint %s: header truncated" % path,
                path=path, offset=0)
        magic, version, n, arcs = _HEADER.unpack(header)
        if magic != _MAGIC:
            raise CorruptStorageError(
                "checkpoint %s: bad checkpoint magic %r" % (path, magic),
                path=path, offset=0)
        if not _MIN_VERSION <= version <= _VERSION:
            raise CorruptStorageError(
                "checkpoint %s: unsupported checkpoint version %d"
                % (path, version),
                path=path, offset=0)
        rest = handle.read()
    expected = 2 * 4 * n
    if version >= 2:
        if len(rest) != expected + _CRC.size:
            raise CorruptStorageError(
                "checkpoint %s: payload is %d bytes, expected %d"
                % (path, len(rest), expected + _CRC.size),
                path=path, offset=_HEADER.size + len(rest))
        payload, crc_bytes = rest[:expected], rest[expected:]
        if _CRC.unpack(crc_bytes)[0] != zlib.crc32(payload) & 0xFFFFFFFF:
            raise CorruptStorageError(
                "checkpoint %s: payload fails its checksum "
                "(corrupted state arrays)" % path,
                path=path, offset=_HEADER.size)
    else:
        payload = rest
        if len(payload) != expected:
            raise CorruptStorageError(
                "checkpoint %s: payload is %d bytes, expected %d"
                % (path, len(payload), expected),
                path=path, offset=_HEADER.size + len(payload))
    if graph is not None:
        if graph.num_nodes != n:
            raise CorruptStorageError(
                "checkpoint %s: checkpoint is for n=%d, graph has n=%d"
                % (path, n, graph.num_nodes),
                path=path)
        if graph.num_arcs != arcs:
            raise CorruptStorageError(
                "checkpoint %s: checkpoint is for %d arcs, graph has %d "
                "(graph changed since the checkpoint)"
                % (path, arcs, graph.num_arcs),
                path=path)
    cores = array("i")
    cores.frombytes(payload[:4 * n])
    cnt = array("i")
    cnt.frombytes(payload[4 * n:])
    return cores, cnt
