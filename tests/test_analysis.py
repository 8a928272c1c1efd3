"""Difference series, avalanche experiment, degenerate detection, CSV."""

import io

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hctcodec.analysis import (
    DiffReport,
    avalanche_experiment,
    degenerate_check,
    difference_series,
    write_csv,
)
from hctcodec.bitcodec import BitSeq
from hctcodec.cipher import KeySchedule, encrypt
from vectors import (
    PLAIN_BITS,
    PLAIN_VS_CIPHER_COMMON,
    PLAIN_VS_CIPHER_DELTA,
    PLAIN_VS_CIPHER_HAMMING,
)

KEY35 = KeySchedule.from_exponents([3, 5])

bit_strings = st.text(alphabet="01", max_size=128)


def test_identical_sequences():
    report = difference_series(BitSeq("1010"), BitSeq("1010"))
    assert report.hamming == 0
    assert report.common == 4
    assert report.length_delta == 0
    assert report.fraction == 0.0
    assert report.series == (0, 0, 0, 0)


def test_disjoint_lengths():
    report = difference_series(BitSeq("111"), BitSeq("10"))
    assert report.series == (0, 1)
    assert report.common == 2
    assert report.hamming == 1
    assert report.length_a == 3
    assert report.length_b == 2
    assert report.length_delta == 1


def test_empty_comparison():
    report = difference_series(BitSeq(""), BitSeq(""))
    assert report.common == 0
    assert report.fraction == 0.0


def test_plaintext_vs_ciphertext_reference_values():
    # The example message against its own ciphertext payload.
    plain = BitSeq(PLAIN_BITS)
    ct = encrypt(plain, KEY35).payload
    report = difference_series(plain, ct)
    assert report.common == PLAIN_VS_CIPHER_COMMON
    assert report.hamming == PLAIN_VS_CIPHER_HAMMING
    assert report.length_delta == PLAIN_VS_CIPHER_DELTA


@given(bit_strings, bit_strings)
def test_difference_series_symmetry(a, b):
    fwd = difference_series(BitSeq(a), BitSeq(b))
    rev = difference_series(BitSeq(b), BitSeq(a))
    assert fwd.hamming == rev.hamming
    assert fwd.series == rev.series
    assert fwd.length_delta == rev.length_delta
    assert fwd.length_a == rev.length_b
    assert fwd.series == tuple(int(x != y) for x, y in zip(a, b))


@given(bit_strings)
def test_self_difference_is_zero(a):
    report = difference_series(BitSeq(a), BitSeq(a))
    assert report.hamming == 0
    assert report.length_delta == 0


def test_avalanche_flip_changes_output():
    report = avalanche_experiment(BitSeq(PLAIN_BITS), KEY35, 8, 0)
    assert report.length_a == len(PLAIN_BITS)
    # One corrupted ciphertext word disturbs its whole block on the way back.
    assert report.hamming > 0


def test_avalanche_flip_range_checked():
    with pytest.raises(ValueError):
        avalanche_experiment(BitSeq(PLAIN_BITS), KEY35, 8, 40)
    with pytest.raises(ValueError):
        avalanche_experiment(BitSeq(PLAIN_BITS), KEY35, 8, -1)


def test_avalanche_reports_every_flip_position():
    for index in (0, 7, 13, 39):
        report = avalanche_experiment(BitSeq(PLAIN_BITS), KEY35, 8, index)
        assert report.sentinel_conflicts >= 0
        assert 0.0 <= report.fraction <= 1.0


def test_degenerate_detection():
    assert degenerate_check(BitSeq("0000")) is not None
    assert degenerate_check(BitSeq("1111")) is not None
    assert "zero" in degenerate_check(BitSeq("0000"))
    assert "ones" in degenerate_check(BitSeq("1111"))
    assert degenerate_check(BitSeq("0100")) is None
    assert degenerate_check(BitSeq("0111")) is None
    assert degenerate_check(BitSeq("1110")) is None
    assert degenerate_check(BitSeq("")) is None


def test_csv_output_shape():
    stream = io.StringIO()
    report = difference_series(BitSeq("101"), BitSeq("100"))
    write_csv(BitSeq("101"), report, stream)
    lines = stream.getvalue().splitlines()
    assert lines[0] == "position,bit_a,bit_b,diff"
    assert lines[1] == "0,1,1,0"
    assert lines[2] == "1,0,0,0"
    assert lines[3] == "2,1,0,1"
    assert lines[4].startswith("# length_a=3 length_b=3")
    assert "hamming=1" in lines[4]
    assert report.hamming == 1


def test_csv_empty_inputs():
    stream = io.StringIO()
    report = difference_series(BitSeq(""), BitSeq(""))
    write_csv(BitSeq(""), report, stream)
    lines = stream.getvalue().splitlines()
    assert lines[0] == "position,bit_a,bit_b,diff"
    assert lines[1].startswith("#")
    assert report.common == 0


def test_report_is_plain_data():
    report = DiffReport(4, 4, 1, 0, (0, 0, 0, 1))
    assert report.common == 4
    assert report.fraction == 0.25
    assert report.sentinel_conflicts == 0
