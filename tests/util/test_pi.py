"""Tests for the from-scratch pi hex digit generator."""

import hashlib

import pytest

from repro.util.pi import _pi_fraction_hex, pi_hex_words

#: SHA-256 of the digit strings Blowfish (8336 hex digits: P-array plus
#: S-boxes) and Mars (12432: its S-box at word offset 1042) consume,
#: recorded from an independent computation by Machin's formula.
PINNED_DIGESTS = {
    8336: "b46dc3f3fa23a8d5b68b48f28e8132000cf3820fe7ea531587cc012a08c56976",
    12432: "cef1b45f8747bbf0e874063e4c02e199c405baec48efd0d10a61fe2fbd5498ab",
}


def test_first_words_match_known_pi_digits():
    # pi = 3.243F6A88 85A308D3 13198A2E 03707344 ...
    words = pi_hex_words(4)
    assert words == [0x243F6A88, 0x85A308D3, 0x13198A2E, 0x03707344]


def test_blowfish_p_array_constants():
    # The first 18 words are Blowfish's published initial P-array.
    words = pi_hex_words(18)
    assert words[8] == 0x452821E6
    assert words[16] == 0x9216D5D9
    assert words[17] == 0x8979FB1B


def test_offset_slices_consistently():
    full = pi_hex_words(32)
    assert pi_hex_words(8, offset=24) == full[24:32]
    assert pi_hex_words(1, offset=0) == full[:1]


def test_words_are_32_bit():
    for word in pi_hex_words(64, offset=1000):
        assert 0 <= word <= 0xFFFFFFFF


def test_negative_arguments_rejected():
    with pytest.raises(ValueError):
        pi_hex_words(-1)
    with pytest.raises(ValueError):
        pi_hex_words(1, offset=-1)


def test_zero_count():
    assert pi_hex_words(0) == []


@pytest.mark.parametrize("num_digits", sorted(PINNED_DIGESTS))
def test_cipher_digit_streams_match_pins(num_digits):
    digits = _pi_fraction_hex(num_digits)
    assert len(digits) == num_digits
    assert (hashlib.sha256(digits.encode()).hexdigest()
            == PINNED_DIGESTS[num_digits])
