"""The wire codec core: the fast ``.npy`` member reader and writer, and the
container mode.

``_read_member`` must decode every ``.npy`` member exactly as numpy's own
``np.lib.format.read_array`` does — values, dtype, shape, memory order and
writeability — taking its fast path only for the v1 header numpy writes for
a plain C-order array and handing everything else to numpy.
``_write_payload`` must write every member's bytes exactly as
``np.lib.format.write_array`` does, from a cached header only for a
non-empty C-order bool or numeric array.  One zip
writer serves every family.  Files, saved payloads and the remote shard
messages deflate their members, byte for byte as ``np.savez_compressed``
does, except that a report stores its four float members per site; the
request bytes a process pool ships store every member, as ``np.savez``
does; every loader accepts any mix.
"""

import dataclasses
import io
import struct
import zipfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.self_augmented import SelfAugmentedConfig
from repro.core.updater import UpdaterConfig
from repro.io.delta import load_delta, save_delta
from repro.io.query import load_answers, load_queries, save_answers, save_queries
from repro.io.wire import (
    WirePayloadError,
    _Archive,
    _Family,
    _read_member,
    _read_payload,
    _write_payload,
    _zip_members,
    load_report,
    load_requests,
    payload_info,
    requests_from_bytes,
    requests_to_bytes,
    save_report,
    save_requests,
    shard_fingerprint,
    shard_result_from_bytes,
    shard_result_to_bytes,
    shard_task_from_bytes,
    shard_task_to_bytes,
)
from repro.query import QueryAnswer, QueryBatch, grid_locations
from repro.service.remote import _solve_shard_payload
from repro.service.service import UpdateService
from repro.service.synthetic import synthesize_fleet

read_array = np.lib.format.read_array

STRUCTURED = np.dtype([("a", "<f8"), ("b", "<i8")])


def _npy_bytes(array: np.ndarray) -> bytes:
    buffer = io.BytesIO()
    np.lib.format.write_array(buffer, array, allow_pickle=False)
    return buffer.getvalue()


def _decode_both(data: bytes):
    """``(fast, numpy, fell_back)``: both decodes of one member, and
    whether ``_read_member`` handed the member to numpy's reader."""
    with mock.patch.object(np.lib.format, "read_array", wraps=read_array) as spy:
        fast = _read_member(data)
    return fast, read_array(io.BytesIO(data), allow_pickle=False), spy.called


def _assert_same_array(fast: np.ndarray, reference: np.ndarray) -> None:
    assert fast.dtype == reference.dtype
    assert fast.shape == reference.shape
    assert fast.tobytes() == reference.tobytes()
    assert fast.flags.writeable == reference.flags.writeable
    assert fast.flags.c_contiguous == reference.flags.c_contiguous
    assert fast.flags.f_contiguous == reference.flags.f_contiguous


@st.composite
def _members(draw):
    dtype = draw(
        st.sampled_from(["<f8", ">f8", "<i8", "|b1", "<U", STRUCTURED])
    )
    if dtype == "<U":
        dtype = f"<U{draw(st.integers(1, 6))}"
    size = st.integers(1, 5)
    kind = draw(st.sampled_from(["0-d", "empty", "1-d", "2-d", "0xn", "3-d"]))
    shape = {
        "0-d": (),
        "empty": (0,),
        "1-d": (draw(size),),
        "2-d": (draw(size), draw(size)),
        "0xn": (0, draw(size)),
        "3-d": (draw(size), draw(size), draw(size)),
    }[kind]
    array = draw(hnp.arrays(np.dtype(dtype), shape))
    if draw(st.booleans()):
        array = np.asfortranarray(array)
    return array


class TestReadMemberMatchesNumpy:
    @settings(max_examples=150, deadline=None)
    @given(array=_members())
    def test_decodes_like_read_array(self, array):
        header_says_fortran = array.flags.f_contiguous and not array.flags.c_contiguous
        fast, reference, fell_back = _decode_both(_npy_bytes(array))
        _assert_same_array(fast, reference)
        assert fell_back == (array.dtype.names is not None or header_says_fortran)

    def test_structured_dtype_takes_the_fallback(self):
        array = np.zeros(3, dtype=STRUCTURED)
        fast, reference, fell_back = _decode_both(_npy_bytes(array))
        _assert_same_array(fast, reference)
        assert fell_back

    def test_v2_header_takes_the_fallback(self):
        array = np.arange(6.0).reshape(2, 3)
        buffer = io.BytesIO()
        np.lib.format.write_array(buffer, array, version=(2, 0))
        fast, reference, fell_back = _decode_both(buffer.getvalue())
        _assert_same_array(fast, reference)
        assert fell_back

    def test_a_short_member_raises_what_numpy_raises(self):
        data = _npy_bytes(np.arange(4.0))[:-1]
        with pytest.raises(ValueError, match="EOF"):
            read_array(io.BytesIO(data), allow_pickle=False)
        with pytest.raises(ValueError, match="EOF"):
            _read_member(data)

    def test_a_long_member_takes_the_fallback(self):
        fast, reference, fell_back = _decode_both(_npy_bytes(np.arange(4.0)) + b"\0" * 8)
        _assert_same_array(fast, reference)
        assert fell_back

    def test_an_object_array_is_refused(self):
        buffer = io.BytesIO()
        np.lib.format.write_array(buffer, np.array([None, 1], dtype=object))
        with pytest.raises(ValueError, match="allow_pickle"):
            _read_member(buffer.getvalue())

    @pytest.mark.parametrize(
        "written, garbled, error",
        [
            (b"(3,), }", b"(3), } ", "shape is not valid"),
            (b"'<f8'", b"'<f3'", "descr is not a valid"),
        ],
    )
    def test_a_garbled_header_is_refused_by_numpy(self, written, garbled, error):
        # Same header length, so only the header's content can tell.
        data = _npy_bytes(np.arange(3.0)).replace(written, garbled)
        with pytest.raises(ValueError, match=error):
            _read_member(data)


@st.composite
def _arrays_to_write(draw):
    """Bool, integer, float and complex arrays of either byte order, and
    unicode ones; 0-d, empty and n-d; C order, Fortran order or sliced."""
    dtype = draw(
        st.sampled_from(
            ["|b1", "<i8", ">i4", "<u2", "|i1", "<f8", ">f8", "<f4", "<c16", "<U3"]
        )
    )
    shape = draw(
        st.sampled_from([(), (0,), (0, 3), (1,), (5,), (2, 3), (3, 1, 4), (2, 0, 2)])
    )
    array = draw(hnp.arrays(np.dtype(dtype), shape))
    layout = draw(st.sampled_from(["C", "F", "sliced", "transposed"]))
    if layout == "F":
        array = np.asfortranarray(array)
    elif layout == "sliced" and array.ndim:
        array = array[..., ::2]
    elif layout == "transposed":
        array = array.T
    return array


class TestWriteMemberMatchesNumpy:
    @staticmethod
    def write_both(array):
        """``(member bytes, numpy bytes, whether the writer fell back)``; the
        manifest always goes through numpy's writer."""
        out = io.BytesIO()
        write_array = np.lib.format.write_array
        with mock.patch.object(np.lib.format, "write_array", wraps=write_array) as spy:
            _write_payload(out, {"format": "x"}, {"a": array}, compress=False)
        with zipfile.ZipFile(out) as archive:
            fast = archive.read("a.npy")
        return fast, _npy_bytes(array), spy.call_count > 1

    @settings(max_examples=200, deadline=None)
    @given(array=_arrays_to_write())
    @example(array=np.asarray('{"format": "x"}'))  # a manifest
    def test_writes_like_write_array(self, array):
        fast, reference, fell_back = self.write_both(array)
        assert fast == reference
        plain = array.dtype.kind != "U" and array.size and array.flags.c_contiguous
        assert fell_back == (not plain)

    def test_an_object_array_is_refused(self):
        with pytest.raises(ValueError, match="allow_pickle"):
            _write_payload(io.BytesIO(), {}, {"a": np.array([None, 1], dtype=object)})

    def test_a_member_past_numpys_write_chunk_deflates_alike(self):
        # numpy writes in 16 MiB chunks; one write of the whole buffer must
        # deflate to the same bytes.
        array = (np.arange(2_200_000) % 251).astype(np.float64)
        out = io.BytesIO()
        _write_payload(out, {"format": "x"}, {"big": array})
        assert out.getvalue() == _numpy_writes(out.getvalue(), np.savez_compressed)


# ----------------------------------------------------------- family fixtures
@pytest.fixture(scope="module")
def requests():
    return synthesize_fleet(
        3,
        link_count=3,
        locations_per_link=3,
        seed=13,
        updater=UpdaterConfig(solver=SelfAugmentedConfig(max_iterations=3)),
    )


@pytest.fixture(scope="module")
def writers(requests):
    """family -> ``save(path)`` through that family's on-disk writer."""

    def refresh(batch):
        return UpdateService().refresh_fleet(batch, elapsed_days=45.0)

    rng = np.random.default_rng(8)
    base, full = refresh(requests[:2]), refresh(requests)
    batches = [
        QueryBatch(
            site="site-a",
            measurements=rng.normal(-60.0, 3.0, size=(4, 3)),
            true_indices=rng.integers(0, 9, size=4),
            locations=grid_locations(3, 3),
        )
    ]
    answers = [
        QueryAnswer(
            site="site-a",
            matcher="knn",
            generation=1,
            indices=np.array([2, 7]),
            points=rng.normal(size=(2, 2)),
        )
    ]
    return {
        "requests": lambda path: save_requests(path, requests, elapsed_days=45.0),
        "report": lambda path: save_report(path, full),
        "delta": lambda path: save_delta(path, base, full),
        "queries": lambda path: save_queries(path, batches),
        "answers": lambda path: save_answers(path, answers),
    }


@pytest.fixture(scope="module")
def payloads(requests, writers):
    """family -> payload bytes: in-memory families as their encoders emit
    them, the others as their writers save them."""

    def saved(family):
        buffer = io.BytesIO()
        writers[family](buffer)
        return buffer.getvalue()

    request_bytes = requests_to_bytes(requests, elapsed_days=45.0)
    result = _solve_shard_payload(request_bytes, 0)
    return {
        "requests": request_bytes,
        "report": saved("report"),
        "shard task": shard_task_to_bytes(request_bytes, shard_index=0, attempt=2),
        "shard result": shard_result_to_bytes(
            result, fingerprint=shard_fingerprint(request_bytes, 0), shard_index=0
        ),
        "delta": saved("delta"),
        "queries": saved("queries"),
        "answers": saved("answers"),
    }


#: family -> loader taking payload bytes.
LOADERS = {
    "requests": requests_from_bytes,
    "report": lambda data: load_report(io.BytesIO(data)),
    "shard task": shard_task_from_bytes,
    "shard result": shard_result_from_bytes,
    "delta": lambda data: load_delta(io.BytesIO(data)),
    "queries": lambda data: load_queries(io.BytesIO(data)),
    "answers": lambda data: load_answers(io.BytesIO(data)),
}
ON_DISK = ("requests", "report", "delta", "queries", "answers")
#: The report members stored inside an otherwise deflated report.
REPORT_STORED = ("estimate", "left", "right", "lrr_correlation")
#: The remote transport's messages cross a network, so they stay deflated.
NETWORK = ("shard task", "shard result")


def _modes(data: bytes) -> set:
    with zipfile.ZipFile(io.BytesIO(data)) as archive:
        return {info.compress_type for info in archive.infolist()}


def _rewrite(data: bytes, compression: int) -> bytes:
    """The same members, rewritten into a zip of another container mode."""
    out = io.BytesIO()
    with zipfile.ZipFile(io.BytesIO(data)) as source, zipfile.ZipFile(
        out, "w", compression
    ) as target:
        for info in source.infolist():
            target.writestr(info.filename, source.read(info))
    return out.getvalue()


def _numpy_writes(data: bytes, save) -> bytes:
    """The payload's members in their order, written again by numpy's ``save``."""
    with np.load(io.BytesIO(data), allow_pickle=False) as archive:
        members = {key: archive[key] for key in archive.files}
    out = io.BytesIO()
    save(out, **members)
    return out.getvalue()


def _same(a, b) -> bool:
    """Bit-exact structural equality of decoded payload content."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (
            isinstance(a, np.ndarray)
            and isinstance(b, np.ndarray)
            and a.dtype == b.dtype
            and np.array_equal(a, b)
        )
    if type(a) is not type(b):
        return False
    if dataclasses.is_dataclass(a):
        return all(
            _same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a)
        )
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    return a == b


@pytest.mark.parametrize("family", sorted(LOADERS))
def test_every_member_takes_the_fast_path_and_matches_numpy(family, payloads):
    with zipfile.ZipFile(io.BytesIO(payloads[family])) as archive:
        for info in archive.infolist():
            fast, reference, fell_back = _decode_both(archive.read(info))
            _assert_same_array(fast, reference)
            assert not fell_back, info.filename


@pytest.mark.parametrize("family", sorted(LOADERS))
def test_bytes_in_front_of_the_archive_are_not_an_npz(family, payloads):
    with pytest.raises(WirePayloadError, match="not an NPZ"):
        LOADERS[family](b"\0" * 8 + payloads[family])


class TestContainerMode:
    @pytest.mark.parametrize("family", [f for f in ON_DISK if f != "report"])
    def test_files_are_deflated(self, family, writers, tmp_path):
        path = tmp_path / "payload.npz"
        writers[family](path)
        assert _modes(path.read_bytes()) == {zipfile.ZIP_DEFLATED}

    @pytest.mark.parametrize("target", ["path", "buffer"])
    def test_reports_store_exactly_their_float_members(
        self, target, writers, payloads, tmp_path
    ):
        if target == "path":
            path = tmp_path / "report.npz"
            writers["report"](path)
            data = path.read_bytes()
        else:
            data = payloads["report"]
        with zipfile.ZipFile(io.BytesIO(data)) as archive:
            modes = {info.filename: info.compress_type for info in archive.infolist()}
        suffixes = {
            name: name.removesuffix(".npy").rpartition("__")[2] for name in modes
        }
        assert set(suffixes.values()) >= set(REPORT_STORED)
        for name, mode in modes.items():
            expected = (
                zipfile.ZIP_STORED
                if suffixes[name] in REPORT_STORED
                else zipfile.ZIP_DEFLATED
            )
            assert mode == expected, name

    @pytest.mark.parametrize("name", REPORT_STORED)
    def test_a_flip_inside_a_stored_member_is_caught(self, name, payloads):
        """No zlib layer guards a stored member; the zip CRC still does."""
        data = bytearray(payloads["report"])
        with zipfile.ZipFile(io.BytesIO(payloads["report"])) as archive:
            info = archive.getinfo(f"site0000__{name}.npy")
        assert info.compress_type == zipfile.ZIP_STORED
        # A local file header is 30 fixed bytes, the name and the extra field;
        # the member's data follows, and its last byte is array data.
        name_length, extra_length = struct.unpack(
            "<HH", data[info.header_offset + 26 : info.header_offset + 30]
        )
        start = info.header_offset + 30 + name_length + extra_length
        data[start + info.compress_size - 1] ^= 0x01
        with pytest.raises(WirePayloadError, match="CRC"):
            load_report(io.BytesIO(bytes(data)))

    @pytest.mark.parametrize("family", NETWORK)
    def test_network_messages_are_deflated(self, family, payloads):
        assert _modes(payloads[family]) == {zipfile.ZIP_DEFLATED}

    def test_process_pool_request_bytes_are_stored(self, payloads):
        assert _modes(payloads["requests"]) == {zipfile.ZIP_STORED}

    def test_a_saved_request_file_holds_the_in_memory_members(
        self, payloads, writers, tmp_path
    ):
        path = tmp_path / "requests.npz"
        writers["requests"](path)
        assert _rewrite(path.read_bytes(), zipfile.ZIP_STORED) == _rewrite(
            payloads["requests"], zipfile.ZIP_STORED
        )
        assert _same(load_requests(path), requests_from_bytes(payloads["requests"]))

    @pytest.mark.parametrize("family", sorted(LOADERS))
    def test_loaders_read_both_modes(self, family, payloads):
        data = payloads[family]
        original = LOADERS[family](data)
        for compression in (zipfile.ZIP_STORED, zipfile.ZIP_DEFLATED):
            rewritten = _rewrite(data, compression)
            assert _modes(rewritten) == {compression}
            assert _same(LOADERS[family](rewritten), original)
            assert payload_info(io.BytesIO(rewritten)) == payload_info(io.BytesIO(data))


class TestNumpyLayout:
    """One zip writer serves every family; where it deflates or stores every
    member, its bytes are numpy's for the same members."""

    #: family -> the numpy writer whose bytes it must equal.
    NUMPY = {
        "requests": np.savez,
        "shard task": np.savez_compressed,
        "shard result": np.savez_compressed,
        "delta": np.savez_compressed,
        "queries": np.savez_compressed,
        "answers": np.savez_compressed,
    }

    @pytest.mark.parametrize("family", sorted(NUMPY))
    def test_payload_bytes_are_numpys(self, family, payloads):
        data = payloads[family]
        assert data == _numpy_writes(data, self.NUMPY[family])

    @pytest.mark.parametrize("family", ["requests", "delta", "queries", "answers"])
    def test_file_bytes_are_numpys(self, family, writers, tmp_path):
        path = tmp_path / "payload.npz"
        writers[family](path)
        data = path.read_bytes()
        assert data == _numpy_writes(data, np.savez_compressed)

    def test_a_path_without_the_suffix_gets_npz(self, writers, payloads, tmp_path):
        writers["report"](str(tmp_path / "x"))
        assert [p.name for p in tmp_path.iterdir()] == ["x.npz"]
        assert (tmp_path / "x.npz").read_bytes() == payloads["report"]


# ------------------------------------------------------------ zip container
def _read_direct(data: bytes) -> dict:
    """Every member of ``data`` through the direct reader, which must map it."""
    view = memoryview(data)
    members = _zip_members(view)
    assert members is not None
    archive = _Archive(view, members)
    return {name: _read_member(archive.read(name)) for name in archive.namelist()}


class TestContainerPastTheZip64Limits:
    """The writer follows ``zipfile``'s zip64 rules: a central zip64 extra
    for a size or offset past ``ZIP64_LIMIT`` and the zip64 end records past
    65,535 members; the direct reader maps what it writes."""

    def test_past_65535_members_the_bytes_are_numpys(self):
        arrays = {f"a{i:05d}": np.array([i % 251], np.uint8) for i in range(65_536)}
        out, expected = io.BytesIO(), io.BytesIO()
        _write_payload(out, {"format": "x"}, arrays, compress=False)
        np.savez(expected, manifest=np.asarray('{"format": "x"}'), **arrays)
        data = out.getvalue()
        assert data == expected.getvalue()
        assert data[-98:-94] == b"PK\x06\x06"  # zip64 end record, then locator
        members = _read_direct(data)
        assert len(members) == 65_537
        assert members["a65535.npy"].tolist() == [65_535 % 251]

    @pytest.mark.parametrize("compress", [False, True], ids=["stored", "deflated"])
    def test_past_the_size_and_offset_limit_the_bytes_are_numpys(self, compress):
        rng = np.random.default_rng(4)
        arrays = {
            "small": np.arange(3.0),
            "large": rng.normal(size=400),  # 3,328 bytes, deflating little
            "after": np.arange(5, dtype=np.int32),
        }
        with mock.patch.object(zipfile, "ZIP64_LIMIT", 1_000):
            out = io.BytesIO()
            _write_payload(out, {"format": "x"}, arrays, compress=compress)
            data = out.getvalue()
            save = np.savez_compressed if compress else np.savez
            assert data == _numpy_writes(data, save)
        with zipfile.ZipFile(io.BytesIO(data)) as archive:
            extras = {i.filename: len(i.extra) for i in archive.infolist()}
        # large: both sizes; after: its offset; and the directory lies past
        # the limit, so the zip64 end records follow it.
        assert extras == {
            "manifest.npy": 0, "small.npy": 0, "large.npy": 20, "after.npy": 12
        }
        assert data[-98:-94] == b"PK\x06\x06"
        members = _read_direct(data)
        assert all(np.array_equal(members[f"{k}.npy"], v) for k, v in arrays.items())


    def test_a_zip64_offset_past_any_buffer_is_a_payload_error(self):
        with mock.patch.object(zipfile, "ZIP64_LIMIT", 1_000):
            out = io.BytesIO()
            _write_payload(out, {"format": "x"}, {"a": np.arange(200.0), "b": 1}, False)
        data = bytearray(out.getvalue())
        # The central entry of b.npy ends in a zip64 extra holding its offset.
        at = data.rindex(b"b.npy") + len(b"b.npy") + 4
        data[at : at + 8] = b"\xff" * 8
        assert _zip_members(memoryview(bytes(data))) is None
        with pytest.raises(WirePayloadError, match="too large"):
            _read_payload(io.BytesIO(bytes(data)), _ANY)


@pytest.mark.parametrize("family", sorted(LOADERS))
def test_every_family_is_read_without_zipfile(family, payloads):
    original = LOADERS[family](payloads[family])
    with mock.patch.object(zipfile, "ZipFile", side_effect=AssertionError("zipfile")):
        assert _same(LOADERS[family](payloads[family]), original)


class _Unseekable(io.RawIOBase):
    """A write-only stream ``zipfile`` cannot seek back in, so it writes a
    data descriptor after each member."""

    def __init__(self) -> None:
        self.data = bytearray()

    def writable(self) -> bool:
        return True

    def write(self, chunk) -> int:
        self.data += chunk
        return len(chunk)


def _foreign(data: bytes, layout: str) -> bytes:
    """``data`` rewritten by ``zipfile`` in a layout this writer never makes."""
    if layout == "prefixed":
        # Passes the magic check; zipfile reads past the prefix.
        return data[:4] + b"junk" + data
    target = _Unseekable() if layout == "data descriptor" else io.BytesIO()
    with zipfile.ZipFile(io.BytesIO(data)) as source, zipfile.ZipFile(
        target, "w", zipfile.ZIP_DEFLATED
    ) as archive:
        for info in source.infolist():
            member = zipfile.ZipInfo(info.filename)
            member.compress_type = info.compress_type
            if layout == "extra field":
                member.extra = struct.pack("<HH2s", 0xCAFE, 2, b"ok")
            archive.writestr(member, source.read(info))
        if layout == "non-ascii name":
            archive.writestr("größe.npy", _npy_bytes(np.arange(3)))
        if layout == "comment":
            archive.comment = b"written elsewhere"
    return bytes(target.data) if layout == "data descriptor" else target.getvalue()


class TestForeignLayoutsGoToZipfile:
    """Archives this writer never makes still load as they always did:
    the direct reader declines them and ``zipfile`` reads them."""

    @pytest.mark.parametrize(
        "layout",
        ["comment", "data descriptor", "extra field", "non-ascii name", "prefixed"],
    )
    @pytest.mark.parametrize("family", ["queries", "report", "shard result"])
    def test_loads_as_before(self, family, layout, payloads):
        data = _foreign(payloads[family], layout)
        assert _zip_members(memoryview(data)) is None
        assert _same(LOADERS[family](data), LOADERS[family](payloads[family]))

    def test_bytes_in_front_are_still_not_an_npz(self, payloads):
        with pytest.raises(WirePayloadError, match="not an NPZ"):
            LOADERS["queries"](b"\0" * 8 + payloads["queries"])


@st.composite
def _damage(draw, data: bytes) -> bytes:
    """``data`` as it is, truncated, with 1-8 bits flipped or with 1-8 bytes
    inserted."""
    kind = draw(st.sampled_from(["none", "truncate", "flip", "insert"]))
    data = bytearray(data)
    position = st.integers(0, len(data) - 1)
    if kind == "truncate":
        del data[draw(position) :]
    elif kind == "flip":
        for _ in range(draw(st.integers(1, 8))):
            data[draw(position)] ^= 1 << draw(st.integers(0, 7))
    elif kind == "insert":
        data[draw(position) : 0] = draw(st.binary(min_size=1, max_size=8))
    return bytes(data)


@st.composite
def _member_sets(draw):
    """Random members written as any container mode."""
    names = draw(
        st.lists(st.from_regex(r"[a-z]{1,6}(__[a-z]{1,4})?", fullmatch=True),
                 min_size=1, max_size=5, unique=True)
    )
    arrays = {name: draw(_arrays_to_write()) for name in names if name != "manifest"}
    stored = frozenset(draw(st.lists(st.sampled_from(["a", "b", "ab"]), max_size=2)))
    out = io.BytesIO()
    _write_payload(out, {"format": "x"}, arrays, draw(st.booleans()), stored=stored)
    return out.getvalue()


_ANY = _Family("x", entries=None, versions=())


def _outcome(decode, data):
    """What ``decode(data)`` yields, or ``WirePayloadError`` if it raises so."""
    try:
        return decode(data)
    except WirePayloadError:
        return WirePayloadError


def _both_readers(decode, data):
    """``decode(data)`` through the direct reader and through ``zipfile``."""
    direct = _outcome(decode, data)
    with mock.patch("repro.io.wire._zip_members", return_value=None):
        reference = _outcome(decode, data)
    return direct, reference


class TestDirectReaderMatchesZipfile:
    """Whatever the bytes, the direct reader and ``zipfile`` decode equal
    content or both raise WirePayloadError."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_family_payloads(self, data, payloads):
        family = data.draw(st.sampled_from(sorted(LOADERS)))
        damaged = data.draw(_damage(payloads[family]))
        direct, reference = _both_readers(LOADERS[family], damaged)
        assert (direct is reference is WirePayloadError) or _same(direct, reference)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_random_member_sets(self, data):
        damaged = data.draw(_damage(data.draw(_member_sets())))

        def decode(payload):
            return _read_payload(
                io.BytesIO(payload), _ANY, finish=lambda _m, _d, arrays: arrays
            )

        direct, reference = _both_readers(decode, damaged)
        if direct is WirePayloadError or reference is WirePayloadError:
            assert direct is reference
        else:  # bit for bit, NaNs included
            assert direct.keys() == reference.keys()
            for key, array in direct.items():
                _assert_same_array(array, reference[key])
