"""NPZ+JSON wire format for fleet requests and reports.

The fleet service's in-memory request/response model
(:class:`~repro.service.types.UpdateRequest` /
:class:`~repro.service.types.FleetReport`) becomes portable here: a payload
is a single NPZ whose ``manifest`` entry holds a versioned JSON header
(format tag, per-site metadata, configs, seeds, shard plan) and whose
remaining entries hold the float64 matrices bit-exactly.  Files, saved
payloads and the remote transport's shard messages deflate their members,
except that a report stores its four float matrices per site; in-memory
request bytes (:func:`requests_to_bytes`, which a remote shard task wraps
and deflates once) store every member; readers accept any mix.  The zip
container is written and read here with ``struct``, byte for byte as
``zipfile`` lays it out for ``np.savez``; an archive in any other layout
is read by ``zipfile``.  ``fleet export`` writes request payloads, ``fleet
run --in/--out`` consumes and produces them, and any external producer
that emits the same layout can feed the service without touching the
simulator.

Guarantees:

* **Round-trip exactness** — arrays ride NPZ untouched (dtype, shape,
  values); scalar floats ride JSON via ``repr`` round-tripping; configs are
  encoded field by field and rebuilt through their validating constructors.
* **One decode contract** — every NPZ family (requests, reports, shard
  tasks and results here; deltas in :mod:`repro.io.delta`; queries and
  answers in :mod:`repro.io.query`) reads through :func:`_read_payload`.
  It checks the format tag and that family's version, checks the entry
  list against ``count``, materialises every array, and decodes each
  entry; matrices re-enter through :mod:`repro.utils.validation` (finite,
  2-D, shape-consistent) inside the ``UpdateRequest`` /
  ``FingerprintMatrix`` constructors.  Corrupt, truncated, mislabelled or
  wrong-version input raises :class:`WirePayloadError` (a ``ValueError``)
  naming the payload and the entry, never a zip/zlib error and never a
  silently different result.
* **No pickling** — payloads load with ``allow_pickle=False``; everything is
  plain arrays plus JSON.
"""

from __future__ import annotations

import functools
import hashlib
import io
import json
import math
import os
import re
import struct
import tokenize
import zipfile
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, fields
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.lrr import LRRConfig, LRRResult
from repro.core.mic import MICResult
from repro.core.self_augmented import SelfAugmentedConfig, SelfAugmentedResult
from repro.core.updater import UpdaterConfig, UpdateResult
from repro.fingerprint.matrix import FingerprintMatrix
from repro.service.shard import ShardPlan
from repro.service.types import (
    FleetReport,
    UpdateReport,
    UpdateRequest,
    WarmFactors,
)

__all__ = [
    "WIRE_VERSION",
    "REQUESTS_FORMAT",
    "REPORT_FORMAT",
    "SHARD_TASK_FORMAT",
    "SHARD_RESULT_FORMAT",
    "WirePayloadError",
    "check_legacy_value",
    "ShardTask",
    "save_requests",
    "load_requests",
    "requests_to_bytes",
    "requests_from_bytes",
    "save_report",
    "load_report",
    "payload_info",
    "shard_fingerprint",
    "shard_task_to_bytes",
    "shard_task_from_bytes",
    "shard_result_to_bytes",
    "shard_result_from_bytes",
]

WIRE_VERSION = 1
"""Version stamped into every payload header; bumped on layout changes."""

REQUESTS_FORMAT = "repro-fleet-requests"
"""Format tag of a request payload."""

REPORT_FORMAT = "repro-fleet-report"
"""Format tag of a report payload."""

SHARD_TASK_FORMAT = "repro-shard-task"
"""Format tag of a remote shard-task payload (scatter direction)."""

SHARD_RESULT_FORMAT = "repro-shard-result"
"""Format tag of a remote shard-result payload (gather direction)."""

SOLVER_BACKENDS = ("batched", "looped")
"""Every value a v1 ``solver_backend`` key has carried.  The solver has a
single path, so writers always emit the first; readers validate the key
against this tuple and ignore it."""


class WirePayloadError(ValueError):
    """A wire payload failed validation (corrupt, truncated, wrong format).

    Subclasses ``ValueError`` so every existing ``except ValueError`` path
    keeps working; the distinct type exists so transport code (the remote
    executor's retry loop, the worker server's 400 path) can tell "this
    payload is bad" apart from any other ``ValueError`` — and so the wire
    fuzz suite can assert corruption *always* surfaces as this one typed
    error instead of a silent wrong result or a stray exception.
    """


def check_legacy_value(value, allowed: Sequence, key: str) -> None:
    """Validate a v1 key that only ever has one meaning now.

    Historical values are accepted (and then ignored by the caller); any
    other value means the payload was not written by this format.
    """
    if value not in allowed:
        raise WirePayloadError(
            f"unknown {key} {value!r}; expected one of {tuple(allowed)}"
        )


# ----------------------------------------------------------------- codec core
#
# A payload is one NPZ: a JSON ``manifest`` entry whose header names the
# family and its version(s), whose ``count`` matches its entry list, and one
# ``<prefix>NNNN__<name>`` array group per entry.  `_write_payload` is the
# one writer.  A file, a saved payload or a network message (shard task,
# shard result) deflates its members, except the report's float matrices,
# which deflate by under 10 % and are stored; the requests bytes a process
# pool ships to its workers store every member, since they are decoded
# again at once on this host.  Every family writes its manifest through
# `_Family.manifest` and reads through `_read_payload`, which takes any mix
# of container modes; `_open_npz` maps the zip container, `_read_member`
# decodes each ``.npy`` member; `_decoding` is the one place decode failures
# are caught and turned into WirePayloadError.

#: Exceptions decoding corrupt bytes can raise: a bad CRC (``BadZipFile``
#: from either zip reader) and zlib errors from a damaged member; from the
#: ``zipfile`` fallback, which reads every layout the direct reader does not
#: map, zip structure and EOF errors, an unsupported compression method or
#: a set encryption flag (its NotImplementedError and RuntimeError), and
#: the OverflowError of a zip64 offset past any seek; numpy's
#: tokenizer failing on a garbled ``.npy`` header; and the KeyError /
#: TypeError / ValueError / IndexError of a malformed manifest or of arrays
#: that do not fit it.  The direct reader's own ``struct.error`` never
#: leaves it: it means "not this layout".  :func:`_decoding` maps them to
#: WirePayloadError.
_DECODE_ERRORS = (
    ValueError,
    KeyError,
    TypeError,
    IndexError,
    OverflowError,
    OSError,
    EOFError,
    NotImplementedError,
    RuntimeError,
    tokenize.TokenError,
    zipfile.BadZipFile,
    zlib.error,
)


@contextmanager
def _decoding(context: str):
    """Re-raise any decode failure in the block as a WirePayloadError."""
    try:
        yield
    except _DECODE_ERRORS as exc:
        raise WirePayloadError(f"{context}: {exc}") from exc


@dataclass(frozen=True)
class _Family:
    """How one payload family frames its manifest and names its arrays.

    ``entries`` is the manifest key of the per-entry list (``None`` for a
    family without one), ``entry`` names an entry in error messages,
    ``prefix`` starts its array names, and ``versions`` lists the
    ``(manifest key, version, lineage)`` triples a reader must match.
    """

    format: str
    entries: Optional[str] = "sites"
    entry: str = "site"
    prefix: str = "site"
    versions: Tuple[Tuple[str, int, str], ...] = (("version", WIRE_VERSION, "wire"),)

    def key(self, index: int) -> str:
        return f"{self.prefix}{index:04d}"

    def manifest(self, header: dict, entries: Optional[list] = None) -> dict:
        """The family's format/version header, ``count``, ``header``, entries."""
        manifest: dict = {"format": self.format}
        manifest.update((key, version) for key, version, _ in self.versions)
        if entries is not None:
            manifest["count"] = len(entries)
        manifest.update(header)
        if entries is not None:
            manifest[self.entries] = entries
        return manifest

    def check_header(self, manifest: dict, name: str) -> None:
        """Reject a manifest of another format or an unreadable version."""
        got = manifest.get("format")
        if got != self.format:
            raise WirePayloadError(
                f"{name} holds format {got!r}, expected {self.format!r}"
            )
        for key, version, lineage in self.versions:
            got = manifest.get(key)
            if got != version:
                raise WirePayloadError(
                    f"{name} is {lineage} version {got!r}; this build reads "
                    f"version {version}"
                )


def _payload_name(path) -> str:
    if isinstance(path, (str, os.PathLike)):
        return repr(os.fspath(path))
    return "<in-memory payload>"


# The zip container (https://pkware.cachefly.net/webdocs/casestudies/APPNOTE.TXT)
# as ``zipfile`` lays it out for ``np.savez``: each member is dated
# 1980-01-01, mode 0600, and carries a zip64 extra with its sizes in its
# local header (numpy forces zip64, gh-10776); no data descriptor, no
# comment.  `_write_payload` writes it and `_zip_members` reads it, both in
# one ``struct`` pass; `_open_npz` hands any other layout to ``zipfile``.
_LOCAL = struct.Struct("<4s2B4HL2L2H")
_LOCAL_ZIP64 = struct.Struct("<HHQQ")
_CENTRAL = struct.Struct("<4s4B4HL2L5H2L")
_END = struct.Struct("<4s4H2LH")
_END64 = struct.Struct("<4sQ2H2L4Q")
_LOCATOR = struct.Struct("<4sLQL")
_CREATE_SYSTEM = zipfile.ZipInfo().create_system
_DOS_DATE = 1 << 5 | 1  # 1980-01-01; the time is 00:00:00
_FULL = 0xFFFFFFFF  # a 32-bit size or offset field whose value is in the zip64 extra


class _Chunks(list):
    """What ``np.lib.format.write_array`` writes, one chunk per call."""

    write = list.append


def _write_payload(
    path,
    manifest: dict,
    arrays: Dict[str, np.ndarray],
    compress: bool = True,
    *,
    stored: frozenset = frozenset(),
) -> None:
    """Write ``manifest`` then ``arrays`` as ``.npy`` members, as ``np.savez`` does.

    Same members, order, headers, zip records and ``.npz`` suffix rule as
    numpy, so with nothing in ``stored`` the bytes are
    ``np.savez_compressed``'s (without ``compress``, ``np.savez``'s).  An
    array named ``<key>__<name>`` with ``name`` in ``stored`` is stored even
    inside a deflated payload.  A non-empty C-contiguous bool or numeric
    ndarray is written as its cached ``.npy`` header and then its own
    memory; everything else — the 0-d unicode manifest, empty, Fortran-order
    or strided arrays, object dtypes — goes through numpy's ``write_array``,
    which raises what it always did.  Written front to back, so ``path`` may
    be a file name or any binary file object.
    """
    if not hasattr(path, "write"):
        path = os.fspath(path)
        if not path.endswith(".npz"):
            path += ".npz"
        with open(path, "wb") as out:
            _write_payload(out, manifest, arrays, compress, stored=stored)
        return
    out = path
    members = {"manifest": np.asarray(json.dumps(manifest)), **arrays}
    directory, offset = [], 0
    for key, value in members.items():
        name = f"{key}.npy".encode("ascii")
        deflate = None
        if compress and key.rpartition("__")[2] not in stored:
            deflate = zlib.compressobj(
                zlib.Z_DEFAULT_COMPRESSION, zlib.DEFLATED, -zlib.MAX_WBITS
            )
        array = np.asanyarray(value)
        if (
            type(array) is np.ndarray
            and array.dtype.kind in "biufc"
            and array.size
            and array.flags.c_contiguous
        ):
            header = _npy_header(array.dtype.str, array.shape)
            chunks = [header, memoryview(array).cast("B")]
        else:
            chunks = _Chunks()
            np.lib.format.write_array(chunks, array, allow_pickle=False)
        data, crc, size = [], 0, 0
        for chunk in chunks:
            crc = zlib.crc32(chunk, crc)
            size += len(chunk)
            data.append(deflate.compress(chunk) if deflate else chunk)
        if deflate:
            data.append(deflate.flush())
        method, csize = 8 if deflate else 0, sum(map(len, data))
        out.write(
            _LOCAL.pack(
                b"PK\x03\x04", 45, 0, 0, method, 0, _DOS_DATE, crc,
                _FULL, _FULL, len(name), _LOCAL_ZIP64.size,
            )
            + name
            + _LOCAL_ZIP64.pack(1, 16, size, csize)
        )
        out.writelines(data)
        directory.append((name, method, crc, size, csize, offset))
        offset += _LOCAL.size + len(name) + _LOCAL_ZIP64.size + csize
    start, limit = offset, zipfile.ZIP64_LIMIT
    for name, method, crc, size, csize, local in directory:
        wide = max(size, csize) > limit
        zip64 = ((size, csize) if wide else ()) + ((local,) if local > limit else ())
        extra = b""
        if zip64:
            extra = struct.pack(f"<HH{len(zip64)}Q", 1, 8 * len(zip64), *zip64)
        out.write(
            _CENTRAL.pack(
                b"PK\x01\x02", 45, _CREATE_SYSTEM, 45, 0, 0, method, 0,
                _DOS_DATE, crc, _FULL if wide else csize, _FULL if wide else size,
                len(name), len(extra), 0, 0, 0, 0o600 << 16,
                _FULL if local > limit else local,
            )
            + name
            + extra
        )
        offset += _CENTRAL.size + len(name) + len(extra)
    count, size = len(directory), offset - start
    if count > zipfile.ZIP_FILECOUNT_LIMIT or max(start, size) > limit:
        out.write(
            _END64.pack(b"PK\x06\x06", 44, 45, 45, 0, 0, count, count, size, start)
            + _LOCATOR.pack(b"PK\x06\x07", 0, offset, 1)
        )
    entries, size, start = min(count, 0xFFFF), min(size, _FULL), min(start, _FULL)
    out.write(_END.pack(b"PK\x05\x06", 0, 0, entries, entries, size, start, 0))


@functools.lru_cache(maxsize=256)
def _npy_header(descr: str, shape: tuple) -> bytes:
    """numpy's own v1 ``.npy`` header for a C-order array."""
    buffer = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        buffer, {"descr": descr, "fortran_order": False, "shape": shape}
    )
    return buffer.getvalue()


#: How an NPZ starts: a zip's first local file header, or an empty zip's
#: end record.  ``zipfile`` alone also accepts bytes put in front of the
#: archive; ``np.load`` never did, and neither does the wire.
_NPZ_MAGIC = (b"PK\x03\x04", b"PK\x05\x06")

#: The ``.npy`` v1 header exactly as numpy writes it for a plain C-order
#: array: magic, version 1.0, header length, the literal dict, space padding
#: and a newline (https://numpy.org/neps/nep-0001-npy-format.html).
_NPY_V1 = re.compile(
    rb"\x93NUMPY\x01\x00(..)\{'descr': '([<>|][biufcSU][0-9]+)', "
    rb"'fortran_order': False, 'shape': (\([0-9, ]*\)), \} *\n",
    re.DOTALL,
)

_npy_dtype = functools.lru_cache(maxsize=256)(np.dtype)


def _read_member(data) -> np.ndarray:
    """Decode one ``.npy`` member to what ``np.lib.format.read_array`` returns.

    The fast path takes only :data:`_NPY_V1` headers whose shape reads as
    Python writes a tuple and whose data length is exactly count × itemsize,
    and copies the data out of ``data`` (so the array is writeable and owns
    aligned memory).  Everything else — v2/v3 headers, Fortran order,
    structured or object dtypes, a length mismatch, a garbled header — goes
    to numpy's reader, which raises what it always did.
    """
    match = _NPY_V1.match(data)
    if match is not None and match.end() == 10 + int.from_bytes(match[1], "little"):
        shape = tuple(map(int, re.findall(rb"[0-9]+", match[3])))
        try:
            dtype = _npy_dtype(match[2])
        except (TypeError, ValueError, OverflowError):
            dtype = None
        count = math.prod(shape)
        if (
            dtype is not None
            and dtype.itemsize
            and repr(shape).encode() == match[3]
            and len(data) - match.end() == count * dtype.itemsize
        ):
            array = np.frombuffer(data, dtype, count, match.end())
            return array.reshape(shape).copy()
    return np.lib.format.read_array(io.BytesIO(data), allow_pickle=False)


def _zip_members(data: memoryview) -> Optional[Dict[str, tuple]]:
    """``name -> (method, crc, size, start, stop)`` for every member of an
    archive laid out as :func:`_write_payload` (and every earlier writer of
    this format) lays it out, or ``None`` for any other layout.

    That layout: no archive comment, no data descriptor, no encryption,
    stored or deflated members with unique plain-ASCII names, each local
    header agreeing with its central entry on name, method and zip64 sizes,
    members in order, apart and before the central directory, and the
    directory right before the (zip64) end records.  Whatever it accepts,
    ``zipfile`` reads to the same members.
    """
    try:
        end = len(data) - _END.size
        if end < 0:
            return None
        sig, _, _, _, count, cd_size, cd_start, comment = _END.unpack_from(data, end)
        if sig != b"PK\x05\x06" or comment:
            return None
        locator = end - _LOCATOR.size
        if locator >= 0 and data[locator : locator + 4] == b"PK\x06\x07":
            _, disk, _, disks = _LOCATOR.unpack_from(data, locator)
            end = locator - _END64.size
            if disk or disks > 1 or end < 0:
                return None
            sig, *_, count, cd_size, cd_start = _END64.unpack_from(data, end)
            if sig != b"PK\x06\x06":
                return None
        if cd_start + cd_size != end:
            return None
        members, pos, stop = {}, cd_start, 0
        for _ in range(count):
            (sig, _, _, version, _, flags, method, _, _, crc, csize, size, name_length,
             extra_length, comment, _, _, _, offset) = _CENTRAL.unpack_from(data, pos)
            pos += _CENTRAL.size + name_length
            name = bytes(data[pos - name_length : pos])
            extra = data[pos : pos + extra_length]
            fields = [size, csize, offset]
            wide = [i for i, value in enumerate(fields) if value == _FULL]
            if wide:
                tag, length, *values = struct.unpack(f"<HH{len(wide)}Q", extra)
                if tag != 1 or length != 8 * len(wide):
                    return None
                for i, value in zip(wide, values):
                    fields[i] = value
            elif extra_length:
                return None
            size, csize, offset = fields
            pos += extra_length + comment
            lsig, _, _, lflags, lmethod, *_, lname_length, lextra_length = (
                _LOCAL.unpack_from(data, offset)
            )
            lextra = offset + _LOCAL.size + lname_length
            start = lextra + lextra_length
            if (
                sig != b"PK\x01\x02" or version > 63 or flags or method not in (0, 8)
                or comment or not name.isascii() or b"\0" in name
                or name.decode() in members or (not method and csize != size)
                or lsig != b"PK\x03\x04" or lflags or lmethod != method
                or data[offset + _LOCAL.size : lextra] != name
                or lextra_length != _LOCAL_ZIP64.size
                or _LOCAL_ZIP64.unpack_from(data, lextra) != (1, 16, size, csize)
                or offset < stop or start + csize > cd_start
            ):
                return None
            stop = start + csize
            members[name.decode()] = (method, crc, size, start, stop)
        return members if pos == end else None
    except (struct.error, OverflowError):  # a field pointing past the payload
        return None


class _Archive:
    """The ``namelist`` / ``read`` part of ``zipfile.ZipFile`` the wire uses,
    over an archive :func:`_zip_members` has mapped: the same members, the
    same CRC check and the same error."""

    def __init__(self, data: memoryview, members: Dict[str, tuple]) -> None:
        self._data, self._members = data, members

    def __enter__(self) -> "_Archive":
        return self

    def __exit__(self, *exc) -> None:
        return None

    def namelist(self) -> List[str]:
        return list(self._members)

    def read(self, name: str):
        method, crc, size, start, stop = self._members[name]
        data = self._data[start:stop]
        if method:
            # As zipfile does: inflate the whole member, keep ``size`` bytes.
            # Stopping at ``size`` would pass a damaged stream tail that
            # zipfile rejects.
            data = zlib.decompressobj(-zlib.MAX_WBITS).decompress(data)[:size]
        if zlib.crc32(data) != crc:
            raise zipfile.BadZipFile(f"Bad CRC-32 for file {name!r}")
        return data


def _open_npz(path):
    """``path`` (a file name or a binary file object) as an open archive, or
    ``None`` when it does not start the way an NPZ does.

    The payload is read once (a ``BytesIO`` without a copy); an archive
    :func:`_zip_members` maps is read from those bytes, any other goes to
    ``zipfile``, so an NPZ written by other tools still loads.
    """
    if isinstance(path, (str, os.PathLike)):
        with open(path, "rb") as handle:
            data = memoryview(handle.read())
    else:
        start = path.tell()
        if isinstance(path, io.BytesIO):
            data = memoryview(path.getvalue())[start:]
        else:
            data = memoryview(path.read())
        path.seek(start)
    if data[:4] not in _NPZ_MAGIC:
        return None
    members = _zip_members(data)
    return zipfile.ZipFile(path) if members is None else _Archive(data, members)


@contextmanager
def _read_manifest(path):
    """Open any wire payload; yield ``(name, manifest, read_arrays)``, then
    close it.

    Only the manifest member is decoded here (no format check), which is all
    :func:`payload_info` reads; ``read_arrays()`` decodes every other member
    into a name → array dict.  Each member is read whole, so its CRC is
    checked.
    """
    name = _payload_name(path)
    with _decoding(f"cannot read wire payload {name}"):
        archive = _open_npz(path)
    if archive is None:
        raise WirePayloadError(f"cannot read wire payload {name}: not an NPZ")
    with archive:
        members = {
            member[:-4] if member.endswith(".npy") else member: member
            for member in archive.namelist()
        }
        if "manifest" not in members:
            raise WirePayloadError(
                f"{name} is not a fleet wire payload (no manifest entry)"
            )
        with _decoding(f"corrupt manifest in {name}"):
            manifest_member = _read_member(archive.read(members.pop("manifest")))
            manifest = json.loads(str(manifest_member[()]))
        if not isinstance(manifest, dict):
            raise WirePayloadError(
                f"corrupt manifest in {name}: expected a JSON object"
            )

        def read_arrays() -> Dict[str, np.ndarray]:
            return {
                key: _read_member(archive.read(member))
                for key, member in members.items()
            }

        yield name, manifest, read_arrays


def _get_array(arrays: Dict[str, np.ndarray], key: str) -> np.ndarray:
    if key not in arrays:
        raise WirePayloadError(f"missing array {key!r}")
    return arrays[key]


def _read_payload(
    path,
    family: _Family,
    decode_entry: Optional[Callable] = None,
    finish: Optional[Callable] = None,
):
    """The one read path of every NPZ family.

    Checks the header against ``family``, checks the entry list against
    ``count``, materialises every array (so a member that no longer
    inflates fails here, not lazily in a caller), then decodes each entry
    with ``decode_entry(entry, get)`` — ``get(name)`` resolves that entry's
    arrays — and returns the decoded list, or ``finish(manifest, decoded,
    arrays)`` when given.  Any decode failure raises
    :class:`WirePayloadError` naming the payload and the entry index.
    """
    with _read_manifest(path) as (name, manifest, read_arrays):
        family.check_header(manifest, name)
        entries = []
        if family.entries is not None:
            entries = manifest.get(family.entries)
            if not isinstance(entries, list) or manifest.get("count") != len(entries):
                raise WirePayloadError(
                    f"corrupt manifest in {name}: {family.entry} list/count mismatch"
                )
        with _decoding(f"cannot read wire payload {name}"):
            arrays = read_arrays()
    decoded = []
    for index, entry in enumerate(entries):
        key = family.key(index)
        with _decoding(f"corrupt {family.entry} {index} in {name}"):
            if not isinstance(entry, dict):
                raise WirePayloadError("entry is not a JSON object")
            decoded.append(
                decode_entry(entry, lambda array: _get_array(arrays, f"{key}__{array}"))
            )
    if finish is None:
        return decoded
    with _decoding(f"corrupt {family.format} payload {name}"):
        return finish(manifest, decoded, arrays)


def _prefixed(key: str, arrays: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
    return {f"{key}__{name}": array for name, array in arrays.items()}


def payload_info(path) -> dict:
    """Header metadata of any wire payload: format, version, count, stamp."""
    with _read_manifest(path) as (_, manifest, _read_arrays):
        return {
            "format": manifest.get("format"),
            "version": manifest.get("version"),
            "count": manifest.get("count"),
            "elapsed_days": manifest.get("elapsed_days"),
        }


_REQUESTS = _Family(REQUESTS_FORMAT)
_REPORT = _Family(REPORT_FORMAT)
_SHARD_TASK = _Family(SHARD_TASK_FORMAT, entries=None)
_SHARD_RESULT = _Family(
    SHARD_RESULT_FORMAT, entries="results", entry="shard result member", prefix="res"
)


# --------------------------------------------------------------------- common
def _dataclass_scalars(obj) -> dict:
    """Field → value mapping of a flat, JSON-scalar dataclass config."""
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


def _encode_config(config: UpdaterConfig) -> dict:
    return {
        "reference_count": config.reference_count,
        "mic_strategy": config.mic_strategy,
        "include_reference_in_mask": config.include_reference_in_mask,
        "solver_backend": SOLVER_BACKENDS[0],
        "lrr": _dataclass_scalars(config.lrr),
        "solver": _dataclass_scalars(config.solver),
    }


def _decode_config(data: dict) -> UpdaterConfig:
    with _decoding("corrupt updater config"):
        # The top-level key was an optional override (null by default); the
        # nested one a solver field that older writers also emitted.
        check_legacy_value(
            data["solver_backend"], (None, *SOLVER_BACKENDS), "solver_backend"
        )
        solver = dict(data["solver"])
        if "solver_backend" in solver:
            check_legacy_value(
                solver.pop("solver_backend"), SOLVER_BACKENDS, "solver.solver_backend"
            )
        return UpdaterConfig(
            reference_count=data["reference_count"],
            mic_strategy=data["mic_strategy"],
            include_reference_in_mask=data["include_reference_in_mask"],
            lrr=LRRConfig(**data["lrr"]),
            solver=SelfAugmentedConfig(**solver),
        )


def _encode_seed(rng, site: str):
    """Only reproducible seeds may travel: ``None`` or integers."""
    if rng is None:
        return None
    if isinstance(rng, (int, np.integer)):
        return int(rng)
    raise ValueError(
        f"site {site!r} carries a live random generator; wire payloads need a "
        "reproducible integer seed (or None)"
    )


# ------------------------------------------------------------------- requests
def save_requests(
    path,
    requests: Sequence[UpdateRequest],
    elapsed_days: Optional[float] = None,
) -> None:
    """Serialize a fleet of update requests to one NPZ payload.

    Parameters
    ----------
    path:
        Destination file (conventionally ``*.npz``).
    requests:
        The fleet, one request per site.  Requests must carry reproducible
        integer seeds (or ``None``); live generators are rejected.
    elapsed_days:
        Optional refresh stamp recorded in the header, so ``fleet run`` can
        label the resulting report.
    """
    _write_payload(path, *_encode_requests(requests, elapsed_days))


def _encode_requests(
    requests: Sequence[UpdateRequest], elapsed_days: Optional[float]
) -> Tuple[dict, Dict[str, np.ndarray]]:
    """A request payload's manifest and arrays, before either is written."""
    requests = list(requests)
    if not requests:
        raise ValueError("cannot serialize an empty fleet")
    arrays: Dict[str, np.ndarray] = {}
    site_entries: List[dict] = []
    for index, request in enumerate(requests):
        key = _REQUESTS.key(index)
        arrays[f"{key}__baseline_values"] = request.baseline.values
        arrays[f"{key}__baseline_mask"] = request.baseline.index_matrix()
        arrays[f"{key}__no_decrease_matrix"] = request.no_decrease_matrix
        arrays[f"{key}__no_decrease_mask"] = request.no_decrease_mask
        arrays[f"{key}__reference_matrix"] = request.reference_matrix
        entry = {
            "site": request.site,
            "locations_per_link": int(request.baseline.locations_per_link),
            "rng": _encode_seed(request.rng, request.site),
            "config": _encode_config(request.config),
            "reference_indices": None
            if request.reference_indices is None
            else [int(i) for i in request.reference_indices],
            "dtypes": {
                "baseline_values": str(request.baseline.values.dtype),
                "no_decrease_matrix": str(request.no_decrease_matrix.dtype),
                "reference_matrix": str(request.reference_matrix.dtype),
            },
        }
        if request.warm_start is not None:
            # Optional warm-start factors (absent pre-incremental payloads;
            # read with .get, so wire version 1 stays backward compatible).
            arrays[f"{key}__warm_left"] = request.warm_start.left
            arrays[f"{key}__warm_right"] = request.warm_start.right
            entry["warm_start"] = {
                "objective": None
                if request.warm_start.objective is None
                else float(request.warm_start.objective),
            }
        if request.correlation is not None:
            mic, lrr = request.correlation
            arrays[f"{key}__mic_matrix"] = mic.mic_matrix
            arrays[f"{key}__lrr_correlation"] = lrr.correlation
            arrays[f"{key}__lrr_error"] = lrr.error
            entry["correlation"] = {
                "mic": {
                    "indices": [int(i) for i in mic.indices],
                    "rank": int(mic.rank),
                    "strategy": mic.strategy,
                },
                "lrr": {
                    "iterations": int(lrr.iterations),
                    "converged": bool(lrr.converged),
                    "residual": float(lrr.residual),
                },
            }
        else:
            entry["correlation"] = None
        site_entries.append(entry)

    manifest = _REQUESTS.manifest(
        {"elapsed_days": None if elapsed_days is None else float(elapsed_days)},
        site_entries,
    )
    return manifest, arrays


def _decode_request(entry: dict, get) -> UpdateRequest:
    """One request-payload site entry back into a validated request."""
    # Cross-check the dtypes the writer recorded against what the arrays
    # actually carry — a mismatch means the payload was rewritten after
    # export.
    for field_name, recorded in (entry.get("dtypes") or {}).items():
        dtype = get(field_name).dtype
        if str(dtype) != recorded:
            raise WirePayloadError(
                f"array {field_name!r} has dtype {dtype}, manifest records "
                f"{recorded!r}"
            )
    correlation = None
    correlation_meta = entry.get("correlation")
    if correlation_meta is not None:
        mic_meta = correlation_meta["mic"]
        lrr_meta = correlation_meta["lrr"]
        correlation = (
            MICResult(
                indices=tuple(int(i) for i in mic_meta["indices"]),
                rank=int(mic_meta["rank"]),
                mic_matrix=get("mic_matrix"),
                strategy=str(mic_meta["strategy"]),
            ),
            LRRResult(
                correlation=get("lrr_correlation"),
                error=get("lrr_error"),
                iterations=int(lrr_meta["iterations"]),
                converged=bool(lrr_meta["converged"]),
                residual=float(lrr_meta["residual"]),
            ),
        )
    warm = None
    warm_meta = entry.get("warm_start")
    if warm_meta is not None:
        warm = WarmFactors(
            left=get("warm_left"),
            right=get("warm_right"),
            objective=warm_meta.get("objective"),
        )
    rng = entry["rng"]
    reference_indices = entry["reference_indices"]
    return UpdateRequest(
        site=str(entry["site"]),
        baseline=FingerprintMatrix(
            values=get("baseline_values"),
            locations_per_link=int(entry["locations_per_link"]),
            no_decrease_mask=get("baseline_mask"),
        ),
        no_decrease_matrix=get("no_decrease_matrix"),
        no_decrease_mask=get("no_decrease_mask"),
        reference_matrix=get("reference_matrix"),
        reference_indices=None
        if reference_indices is None
        else tuple(int(i) for i in reference_indices),
        config=_decode_config(entry["config"]),
        rng=None if rng is None else int(rng),
        correlation=correlation,
        warm_start=warm,
    )


def load_requests(path) -> List[UpdateRequest]:
    """Load a request payload back into validated :class:`UpdateRequest` objects.

    Raises :class:`WirePayloadError` when the payload is not a request
    payload, has a different wire version, or is corrupt (missing arrays,
    inconsistent shapes, non-finite values, broken configs).
    """
    return _read_payload(path, _REQUESTS, _decode_request)


def requests_to_bytes(
    requests: Sequence[UpdateRequest],
    elapsed_days: Optional[float] = None,
) -> bytes:
    """Serialize requests to an in-memory wire payload (no file needed).

    The scatter half of distributed shard execution: the coordinator encodes
    each shard's member requests with the same manifest and arrays
    ``fleet export`` writes to disk, and ships the bytes to a worker.
    The members are stored, not deflated: the remote shard task
    (:func:`shard_task_to_bytes`) deflates the whole blob once before it
    crosses a network, so deflating each member first would compress the
    same bytes twice.  The same seed discipline applies — live generators
    are rejected.
    """
    buffer = io.BytesIO()
    _write_payload(buffer, *_encode_requests(requests, elapsed_days), compress=False)
    return buffer.getvalue()


def requests_from_bytes(data: bytes) -> List[UpdateRequest]:
    """Rehydrate a :func:`requests_to_bytes` payload into validated requests.

    Workers run the identical validation path as :func:`load_requests` on a
    file — format tag, wire version, dtype cross-checks, matrix validation —
    so a corrupt scatter payload fails with a clear ``ValueError`` instead
    of a divergent solve.
    """
    return load_requests(io.BytesIO(data))


# ------------------------------------------------------- remote shard payloads
#
# The remote scatter-gather transport (repro.service.remote) ships shards to
# workers on other machines, so both directions get their own framed payload:
#
# * a **shard task** wraps one shard's `repro-fleet-requests` payload bytes
#   verbatim (workers rehydrate with the exact `requests_from_bytes` path
#   `load_requests` runs on a file) plus the shard's plan index, the dispatch
#   attempt number, and a SHA-256 fingerprint of (shard index, request bytes);
# * a **shard result** carries the solved `ShardResult` — per-member factors
#   and estimates bit-exactly as NPZ arrays — echoing the task fingerprint so
#   the gather side can match results to tasks, reject cross-wired responses,
#   and deduplicate duplicated completions deterministically.
#
# The fingerprint deliberately excludes the attempt number: every retry and
# straggler re-dispatch of one shard fingerprints identically, which is what
# makes completions idempotent.


def shard_fingerprint(requests_payload: bytes, shard_index: int) -> str:
    """SHA-256 identity of one scattered shard: its index + request bytes.

    Stable across dispatch attempts, so a shard completed twice (straggler
    re-dispatch, deliberate duplication) yields byte-identical fingerprints
    and the gather side can deduplicate deterministically.
    """
    digest = hashlib.sha256()
    digest.update(f"repro-shard:{int(shard_index)}:".encode("ascii"))
    digest.update(requests_payload)
    return digest.hexdigest()


@dataclass(frozen=True)
class ShardTask:
    """A decoded shard-task payload, as a worker sees it.

    Attributes
    ----------
    shard_index:
        The shard's index in the coordinator's executed plan.
    attempt:
        0-based dispatch attempt this payload belongs to (bookkeeping only;
        it does not feed the fingerprint).
    fingerprint:
        :func:`shard_fingerprint` of ``(shard_index, requests_payload)``,
        verified on decode.
    requests_payload:
        The member requests as verbatim ``repro-fleet-requests`` bytes;
        ``requests()`` rehydrates them through the standard validation path.
    """

    shard_index: int
    attempt: int
    fingerprint: str
    requests_payload: bytes

    def requests(self) -> List[UpdateRequest]:
        """Rehydrate the member requests (full wire validation applies)."""
        return requests_from_bytes(self.requests_payload)


def shard_task_to_bytes(
    requests_payload: bytes, shard_index: int, attempt: int = 0
) -> bytes:
    """Frame one shard's request bytes as a ``repro-shard-task`` payload."""
    if not isinstance(requests_payload, (bytes, bytearray)):
        raise TypeError(
            f"requests_payload must be bytes, got {type(requests_payload).__name__}"
        )
    manifest = _SHARD_TASK.manifest(
        {
            "shard_index": int(shard_index),
            "attempt": int(attempt),
            "fingerprint": shard_fingerprint(requests_payload, shard_index),
        }
    )
    buffer = io.BytesIO()
    _write_payload(
        buffer,
        manifest,
        {"requests_payload": np.frombuffer(bytes(requests_payload), dtype=np.uint8)},
    )
    return buffer.getvalue()


def _decode_task(manifest: dict, _entries, arrays) -> ShardTask:
    embedded = _get_array(arrays, "requests_payload")
    if embedded.dtype != np.uint8 or embedded.ndim != 1:
        raise WirePayloadError(
            f"shard task carries a {embedded.dtype}/{embedded.ndim}-d "
            "requests_payload entry; expected 1-d uint8 bytes"
        )
    requests_payload = embedded.tobytes()
    shard_index = int(manifest["shard_index"])
    recorded = str(manifest["fingerprint"])
    actual = shard_fingerprint(requests_payload, shard_index)
    if actual != recorded:
        raise WirePayloadError(
            f"shard task fingerprint mismatch: payload records {recorded}, "
            f"embedded request bytes hash to {actual} — corrupt in transit"
        )
    return ShardTask(
        shard_index=shard_index,
        attempt=int(manifest["attempt"]),
        fingerprint=recorded,
        requests_payload=requests_payload,
    )


def shard_task_from_bytes(data: bytes) -> ShardTask:
    """Decode and validate a ``repro-shard-task`` payload.

    Raises :class:`WirePayloadError` when the payload is truncated, bit-
    flipped, mislabeled, or its embedded request bytes no longer hash to the
    recorded fingerprint.
    """
    return _read_payload(io.BytesIO(data), _SHARD_TASK, finish=_decode_task)


def shard_result_to_bytes(result, fingerprint: str, shard_index: int) -> bytes:
    """Serialize one solved :class:`~repro.core.stacked.ShardResult`.

    ``fingerprint`` is echoed from the task so the gather side can pair the
    completion with its dispatch; the member results' estimates and factors
    ride as NPZ arrays bit-exactly.
    """
    arrays: Dict[str, np.ndarray] = {}
    members: List[dict] = []
    for position, member in enumerate(result.results):
        key = _SHARD_RESULT.key(position)
        arrays[f"{key}__estimate"] = member.estimate
        arrays[f"{key}__left"] = member.left
        arrays[f"{key}__right"] = member.right
        members.append(
            {
                "objective": float(member.objective),
                "iterations": int(member.iterations),
                "converged": bool(member.converged),
                "reference_weight": float(member.reference_weight),
                "structure_weight": float(member.structure_weight),
            }
        )
    manifest = _SHARD_RESULT.manifest(
        {
            "fingerprint": str(fingerprint),
            "shard_index": int(shard_index),
            "sweeps": int(result.sweeps),
            "fallback": bool(result.fallback),
        },
        members,
    )
    buffer = io.BytesIO()
    _write_payload(buffer, manifest, arrays)
    return buffer.getvalue()


def _decode_member(entry: dict, get) -> SelfAugmentedResult:
    estimate, left, right = get("estimate"), get("left"), get("right")
    if estimate.ndim != 2 or left.ndim != 2 or right.ndim != 2:
        raise WirePayloadError("carries non-2-d arrays")
    m, n = estimate.shape
    rank = left.shape[1]
    if left.shape != (m, rank) or right.shape != (n, rank):
        raise WirePayloadError(
            f"factor shapes {left.shape}/{right.shape} do not fit estimate "
            f"{estimate.shape}"
        )
    if not (
        np.isfinite(estimate).all()
        and np.isfinite(left).all()
        and np.isfinite(right).all()
    ):
        raise WirePayloadError("carries non-finite values")
    return SelfAugmentedResult(
        estimate=estimate,
        left=left,
        right=right,
        objective=float(entry["objective"]),
        iterations=int(entry["iterations"]),
        converged=bool(entry["converged"]),
        reference_weight=float(entry["reference_weight"]),
        structure_weight=float(entry["structure_weight"]),
    )


def shard_result_from_bytes(data: bytes):
    """Decode a ``repro-shard-result`` payload back into gather-side values.

    Returns ``(shard_result, fingerprint, shard_index)`` where
    ``shard_result`` is a :class:`~repro.core.stacked.ShardResult`.  Raises
    :class:`WirePayloadError` on any corruption: bad zip structure, CRC
    failures on bit-flipped arrays, missing entries, shape-inconsistent
    factors, or non-finite values.
    """
    from repro.core.stacked import ShardResult

    def finish(manifest, results, _arrays):
        shard_result = ShardResult(
            results=tuple(results),
            sweeps=int(manifest["sweeps"]),
            fallback=bool(manifest["fallback"]),
        )
        return shard_result, str(manifest["fingerprint"]), int(manifest["shard_index"])

    return _read_payload(io.BytesIO(data), _SHARD_RESULT, _decode_member, finish)


# -------------------------------------------------------------------- reports
def encode_site_report(site_report: UpdateReport) -> Tuple[dict, Dict[str, np.ndarray]]:
    """One site report as ``(manifest entry, array-name → array)``.

    Array names are unprefixed (``estimate``, ``left``, ...); the caller
    namespaces them per payload layout.  Shared between the full report
    writer (:func:`save_report`) and the delta writer
    (:func:`repro.io.delta.save_delta`), so both formats stay field-for-field
    identical by construction.
    """
    result = site_report.result
    solver = result.solver
    matrix = result.matrix
    arrays: Dict[str, np.ndarray] = {
        "estimate": matrix.values,
        "matrix_mask": matrix.index_matrix(),
        "left": solver.left,
        "right": solver.right,
        "mic_matrix": result.mic.mic_matrix,
    }
    entry = {
        "site": site_report.site,
        "sweeps": int(site_report.sweeps),
        "converged": bool(site_report.converged),
        "solver_backend": SOLVER_BACKENDS[0],
        # Optional key (absent pre-incremental payloads; read with .get).
        "warm_started": bool(site_report.warm_started),
        "locations_per_link": int(matrix.locations_per_link),
        "reference_indices": [int(i) for i in result.reference_indices],
        "mic": {
            "indices": [int(i) for i in result.mic.indices],
            "rank": int(result.mic.rank),
            "strategy": result.mic.strategy,
        },
        "solver": {
            "objective": float(solver.objective),
            "iterations": int(solver.iterations),
            "converged": bool(solver.converged),
            "reference_weight": float(solver.reference_weight),
            "structure_weight": float(solver.structure_weight),
        },
    }
    if result.lrr is not None:
        arrays["lrr_correlation"] = result.lrr.correlation
        arrays["lrr_error"] = result.lrr.error
        entry["lrr"] = {
            "iterations": int(result.lrr.iterations),
            "converged": bool(result.lrr.converged),
            "residual": float(result.lrr.residual),
        }
    else:
        entry["lrr"] = None
    return entry, arrays


def decode_site_report(entry: dict, get_array) -> UpdateReport:
    """Rebuild one :class:`UpdateReport` from its manifest entry.

    ``get_array(name)`` resolves the unprefixed array names
    :func:`encode_site_report` produced.  Failures propagate; the caller's
    :func:`_decoding` block names the payload and the site.
    """
    matrix = FingerprintMatrix(
        values=get_array("estimate"),
        locations_per_link=int(entry["locations_per_link"]),
        no_decrease_mask=get_array("matrix_mask"),
    )
    solver_meta = entry["solver"]
    solver = SelfAugmentedResult(
        estimate=matrix.values,
        left=get_array("left"),
        right=get_array("right"),
        objective=float(solver_meta["objective"]),
        iterations=int(solver_meta["iterations"]),
        converged=bool(solver_meta["converged"]),
        reference_weight=float(solver_meta["reference_weight"]),
        structure_weight=float(solver_meta["structure_weight"]),
    )
    check_legacy_value(entry["solver_backend"], SOLVER_BACKENDS, "solver_backend")
    mic_meta = entry["mic"]
    mic = MICResult(
        indices=tuple(int(i) for i in mic_meta["indices"]),
        rank=int(mic_meta["rank"]),
        mic_matrix=get_array("mic_matrix"),
        strategy=str(mic_meta["strategy"]),
    )
    lrr = None
    if entry["lrr"] is not None:
        lrr_meta = entry["lrr"]
        lrr = LRRResult(
            correlation=get_array("lrr_correlation"),
            error=get_array("lrr_error"),
            iterations=int(lrr_meta["iterations"]),
            converged=bool(lrr_meta["converged"]),
            residual=float(lrr_meta["residual"]),
        )
    result = UpdateResult(
        matrix=matrix,
        reference_indices=tuple(int(i) for i in entry["reference_indices"]),
        mic=mic,
        lrr=lrr,
        solver=solver,
    )
    return UpdateReport(
        site=str(entry["site"]),
        result=result,
        sweeps=int(entry["sweeps"]),
        converged=bool(entry["converged"]),
        warm_started=bool(entry.get("warm_started", False)),
    )


def _encode_fleet_header(report: FleetReport) -> dict:
    """The fleet-level manifest fields of a report (shared with deltas)."""
    return {
        "elapsed_days": float(report.elapsed_days),
        "stacked_sweeps": int(report.stacked_sweeps),
        "errors_db": {k: float(v) for k, v in report.errors_db.items()},
        "stale_errors_db": {k: float(v) for k, v in report.stale_errors_db.items()},
        "plan": None if report.plan is None else report.plan.to_json(),
        # Optional keys (absent in pre-executor payloads; read with .get so
        # wire version 1 stays backward compatible — see docs/WIRE_FORMAT.md).
        "executor": None if report.executor is None else str(report.executor),
        "workers": int(report.workers),
        "sweeps_saved": {k: int(v) for k, v in report.sweeps_saved.items()},
    }


def _decode_fleet_report(manifest: dict, reports) -> FleetReport:
    """Rebuild a :class:`FleetReport` from its fleet-level manifest fields."""
    plan_data = manifest.get("plan")
    executor = manifest.get("executor")
    return FleetReport(
        elapsed_days=float(manifest["elapsed_days"]),
        reports=tuple(reports),
        errors_db={str(k): float(v) for k, v in manifest["errors_db"].items()},
        stale_errors_db={
            str(k): float(v) for k, v in manifest["stale_errors_db"].items()
        },
        stacked_sweeps=int(manifest["stacked_sweeps"]),
        plan=None if plan_data is None else ShardPlan.from_json(plan_data),
        executor=None if executor is None else str(executor),
        workers=int(manifest.get("workers") or 0),
        sweeps_saved={
            str(k): int(v)
            for k, v in (manifest.get("sweeps_saved") or {}).items()
        },
    )


#: Report members written stored, not deflated: float64 matrices that
#: deflate by under 10 % yet cost most of the writer's time.  The masks,
#: ``mic_matrix``, ``lrr_error`` and the manifest shrink 2.6-58x and stay
#: deflated.
_REPORT_STORED = frozenset({"estimate", "left", "right", "lrr_correlation"})


def save_report(path, report: FleetReport) -> None:
    """Serialize one fleet refresh (per-site results + plan) to an NPZ payload
    whose :data:`_REPORT_STORED` members are stored and the rest deflated."""
    arrays: Dict[str, np.ndarray] = {}
    site_entries: List[dict] = []
    for index, site_report in enumerate(report.reports):
        entry, site_arrays = encode_site_report(site_report)
        arrays.update(_prefixed(_REPORT.key(index), site_arrays))
        site_entries.append(entry)
    manifest = _REPORT.manifest(_encode_fleet_header(report), site_entries)
    _write_payload(path, manifest, arrays, stored=_REPORT_STORED)


def load_report(path) -> FleetReport:
    """Load a report payload back into a full :class:`FleetReport`.

    Per-site estimates, factors, MIC/LRR artefacts and the executed shard
    plan are all reconstructed, so a loaded report compares bit-for-bit
    against the in-process one it was saved from.
    """
    return _read_payload(
        path,
        _REPORT,
        decode_site_report,
        lambda manifest, reports, _arrays: _decode_fleet_report(manifest, reports),
    )
