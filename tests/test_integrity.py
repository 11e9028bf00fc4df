"""Unit tests for the ``repro.integrity`` primitives.

Checksums, the canonical byte form, the torn-tail stop rule, and the
deterministic tamper helpers — the detection half of docs/INTEGRITY.md.
"""

import enum
import math
from typing import Any, NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.integrity import (
    IntegrityError,
    PageIntegrityError,
    RecordIntegrityError,
    canonical_bytes,
    page_checksum,
    record_checksum,
    split_torn_tail,
    tamper_bytes,
    tamper_record,
)
from repro.storage.stable import StableStorage


class Rec(NamedTuple):
    tid: int
    kind: str


def reference_canonical_bytes(value: Any) -> bytes:
    """The original recursive encoder, kept here only as the oracle the
    single-pass :func:`canonical_bytes` must match byte for byte."""
    if value is None:
        return b"N"
    if isinstance(value, bool):
        return b"T" if value else b"F"
    if isinstance(value, int):
        return b"I" + str(value).encode("ascii") + b";"
    if isinstance(value, float):
        return b"D" + repr(value).encode("ascii") + b";"
    if isinstance(value, str):
        raw = value.encode("utf-8")
        return b"S" + str(len(raw)).encode("ascii") + b":" + raw
    if isinstance(value, bytes):
        return b"B" + str(len(value)).encode("ascii") + b":" + value
    if isinstance(value, (tuple, list)):
        inner = b"".join(reference_canonical_bytes(item) for item in value)
        return b"(" + inner + b")"
    raise TypeError(
        f"cannot canonicalize {type(value).__name__!r} for checksumming"
    )


IMAGE = bytes(range(256)) * 16  # one 4 KB page image

#: (value, its canonical bytes), fixed by the encoding in canonical_bytes.
GOLDEN = [
    (None, b"N"),
    (True, b"T"),
    (False, b"F"),
    (0, b"I0;"),
    (1, b"I1;"),
    (1.0, b"D1.0;"),
    (-7, b"I-7;"),
    (2**64 + 1, b"I18446744073709551617;"),
    (-(2**70), b"I-1180591620717411303424;"),
    (-0.0, b"D-0.0;"),
    (float("nan"), b"Dnan;"),
    (float("inf"), b"Dinf;"),
    (float("-inf"), b"D-inf;"),
    (1e300, b"D1e+300;"),
    ("", b"S0:"),
    ("\u00e9\u4e2d", b"S5:\xc3\xa9\xe4\xb8\xad"),
    (b"", b"B0:"),
    (b"\x00\xff", b"B2:\x00\xff"),
    (IMAGE, b"B4096:" + IMAGE),
    ((), b"()"),
    ([], b"()"),
    ((1, [2, (3,)], []), b"(I1;(I2;(I3;))())"),
    (Rec(3, "commit"), b"(I3;S6:commit)"),
    ((True, 1, 1.0), b"(TI1;D1.0;)"),
    (
        ("put", 7, ("w", (3, 99, IMAGE))),
        b"(S3:putI7;(S1:w(I3;I99;B4096:" + IMAGE + b")))",
    ),
    (("arch", [(1, None), Rec(2, "")]), b"(S4:arch((I1;N)(I2;S0:)))"),
]

scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**63, max_value=2**80)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text()
    | st.binary()
)
values = st.recursive(
    scalars,
    lambda children: (
        st.lists(children, max_size=5)
        | st.lists(children, max_size=5).map(tuple)
        | st.builds(Rec, children, children)
    ),
    max_leaves=25,
)


class TestCanonicalBytes:
    def test_scalars_round_trip_distinctly(self):
        values = [None, True, False, 0, 1, -7, 1.0, 0.5, "", "a", b"", b"a"]
        encoded = [canonical_bytes(v) for v in values]
        assert len(set(encoded)) == len(values)

    def test_type_tagged_across_equal_values(self):
        # 1 == 1.0 == True in Python; their byte forms must differ.
        assert canonical_bytes(1) != canonical_bytes(1.0)
        assert canonical_bytes(1) != canonical_bytes(True)
        assert canonical_bytes(0) != canonical_bytes(False)

    def test_nesting_and_sequences(self):
        assert canonical_bytes((1, "x")) == canonical_bytes([1, "x"])
        assert canonical_bytes(((1,), 2)) != canonical_bytes((1, (2,)))
        assert canonical_bytes(()) == b"()"

    def test_string_length_prefix_prevents_ambiguity(self):
        assert canonical_bytes(("ab", "c")) != canonical_bytes(("a", "bc"))

    def test_unsupported_type_raises(self):
        with pytest.raises(TypeError):
            canonical_bytes({"a": 1})

    @pytest.mark.parametrize(
        "value", [{"a": 1}, {1, 2}, (1, {2}), [b"ok", {}], bytearray(b"x"), object()]
    )
    def test_unsupported_types_raise_like_the_reference(self, value):
        with pytest.raises(TypeError) as expected:
            reference_canonical_bytes(value)
        with pytest.raises(TypeError) as got:
            canonical_bytes(value)
        assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize("value,encoded", GOLDEN)
    def test_golden_bytes(self, value, encoded):
        assert canonical_bytes(value) == encoded
        assert canonical_bytes((value,)) == b"(" + encoded + b")"

    @given(values)
    @settings(max_examples=300, deadline=None)
    def test_matches_the_reference_encoder(self, value):
        assert canonical_bytes(value) == reference_canonical_bytes(value)

    def test_subclasses_take_the_reference_path(self):
        class Colour(enum.IntEnum):
            RED = 3

        class Name(str):
            pass

        class Blob(bytes):
            pass

        class Row(list):
            pass

        for value in (Colour.RED, Name("n"), Blob(b"b"), Row([1, Name("x")])):
            assert canonical_bytes(value) == reference_canonical_bytes(value)
            assert canonical_bytes([value]) == reference_canonical_bytes([value])

    def test_deterministic(self):
        record = (1, "op", (2.5, None, b"\x00\xff"), True)
        assert canonical_bytes(record) == canonical_bytes(record)


class TestChecksums:
    def test_page_checksum_detects_a_flip(self):
        data = b"page image bytes"
        assert page_checksum(data) != page_checksum(tamper_bytes(data))

    def test_record_checksum_detects_a_tamper(self):
        record = (7, "write", 3, b"abc")
        assert record_checksum(record) != record_checksum(tamper_record(record))

    def test_checksums_fit_uint32(self):
        for value in (b"", b"x" * 1000):
            assert 0 <= page_checksum(value) < 2**32


class TestSplitTornTail:
    def test_clean_log(self):
        assert split_torn_tail([True, True, True]) == (3, None)

    def test_empty_log(self):
        assert split_torn_tail([]) == (0, None)

    def test_corrupt_suffix_is_a_tear(self):
        assert split_torn_tail([True, True, False]) == (2, None)
        assert split_torn_tail([True, False, False]) == (1, None)
        assert split_torn_tail([False, False]) == (0, None)

    def test_interior_corruption_is_rot(self):
        keep, interior = split_torn_tail([True, False, True])
        assert keep == 3
        assert interior == 1

    def test_interior_wins_over_tail(self):
        # Rot at 0, clean at 1, tear at 2-3: the prefix of length 2 still
        # contains the rot, which must surface before any truncation.
        keep, interior = split_torn_tail([False, True, False, False])
        assert keep == 2
        assert interior == 0


class TestTamper:
    def test_tamper_bytes_changes_exactly_one_byte(self):
        data = b"abcdef"
        tampered = tamper_bytes(data, 2)
        assert len(tampered) == len(data)
        assert sum(a != b for a, b in zip(data, tampered)) == 1

    def test_tamper_bytes_empty_never_noop(self):
        assert tamper_bytes(b"") != b""

    def test_tamper_bytes_position_wraps(self):
        assert tamper_bytes(b"ab", 5) == tamper_bytes(b"ab", 1)

    def test_tamper_record_keeps_tuple_shape(self):
        record = (1, "op", 2.0)
        tampered = tamper_record(record)
        assert isinstance(tampered, tuple)
        assert len(tampered) == len(record)
        assert tampered != record

    def test_tamper_record_namedtuple_keeps_type(self):
        class Rec(NamedTuple):
            tid: int
            kind: str

        tampered = tamper_record(Rec(3, "commit"))
        assert isinstance(tampered, Rec)
        assert tampered != Rec(3, "commit")

    def test_tamper_record_scalars_change(self):
        for value in (0, 1, True, False, 1.5, "abc", "", b"xy", None):
            assert tamper_record(value) != value

    def test_tamper_is_deterministic(self):
        record = (1, ["a", "b"], None)
        assert tamper_record(record) == tamper_record(record)

    def test_working_tampers_are_unchanged(self):
        assert tamper_record("abc") == "\x00bc"
        assert tamper_record("") == "\x00"
        assert tamper_record(1.5) == 2.5
        assert tamper_record(float("nan")) == 0.0
        assert tamper_record(5) == 5 ^ 0x2A
        assert tamper_record((7, "w")) == (7 ^ 0x2A, "w")

    def test_leading_nul_string_still_changes(self):
        assert tamper_record("\x00abc") == "\x01abc"
        assert tamper_record(("\x00", 1)) == ("\x01", 1)

    @pytest.mark.parametrize(
        "value", [1e20, -1e20, 2.0**53, 1e300, float("inf"), float("-inf")]
    )
    def test_huge_floats_still_change(self, value):
        tampered = tamper_record(value)
        assert tampered != value
        assert tampered == math.nextafter(value, 0.0)

    TAMPER_CORPUS = [
        0, 1, True, False, None, 1.5, -0.0, 1e20, 2.0**53, 1e300,
        float("inf"), float("-inf"), float("nan"),
        "", "abc", "\x00", "\x00abc", "\x01abc", b"", b"xy", IMAGE,
        (), [], (1e300, 2), ("\x00abc", 1), [1e20, "x"], Rec(3, "\x00"),
        (("\x00", 1.0), 2), ("put", 7, ("w", (3, 99, IMAGE))),
    ]

    @pytest.mark.parametrize("record", TAMPER_CORPUS)
    def test_every_tamper_and_retamper_changes_the_bytes(self, record):
        once = tamper_record(record)
        twice = tamper_record(once)
        assert canonical_bytes(once) != canonical_bytes(record)
        assert canonical_bytes(twice) != canonical_bytes(once)

    @pytest.mark.parametrize("record", TAMPER_CORPUS)
    def test_stable_storage_detects_every_tamper(self, record):
        stable = StableStorage()
        stable.extend("f", [record, ("clean", 1)])
        stable.corrupt_record("f", 0)
        assert stable.verify_file("f") == [0]
        with pytest.raises(RecordIntegrityError):
            stable.read_file("f")


class TestErrorTypes:
    def test_hierarchy(self):
        assert issubclass(PageIntegrityError, IntegrityError)
        assert issubclass(RecordIntegrityError, IntegrityError)

    def test_page_error_carries_location(self):
        error = PageIntegrityError(42)
        assert error.page == 42
        assert "42" in str(error)

    def test_record_error_carries_location(self):
        error = RecordIntegrityError("log", 7)
        assert (error.file, error.index) == ("log", 7)
        assert "log[7]" in str(error)
