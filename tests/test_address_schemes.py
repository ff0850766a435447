"""Tests for the permuted address-mapping variant."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import AddressMapping
from repro.config.address import CoordTable, DecodedAddress
from repro.errors import ConfigError


class TestPermutedMapping:
    def setup_method(self) -> None:
        self.plain = AddressMapping()
        self.perm = AddressMapping(scheme="permuted")

    def test_validation(self) -> None:
        self.perm.validate()
        with pytest.raises(ConfigError):
            AddressMapping(scheme="holographic").validate()
        with pytest.raises(ConfigError):
            AddressMapping(scheme="permuted",
                           banks_per_channel=12,
                           bank_groups_per_channel=4).validate()

    @settings(max_examples=200, deadline=None)
    @given(addr=st.integers(min_value=0, max_value=2**32))
    def test_roundtrip_property(self, addr: int) -> None:
        aligned = addr - addr % self.perm.access_bytes
        decoded = self.perm.decode(aligned)
        assert self.perm.encode(decoded) == aligned

    @settings(max_examples=100, deadline=None)
    @given(addr=st.integers(min_value=0, max_value=2**30))
    def test_row_and_channel_unchanged_by_permutation(self, addr) -> None:
        aligned = addr - addr % 128
        a = self.plain.decode(aligned)
        b = self.perm.decode(aligned)
        assert a.channel == b.channel
        assert a.row == b.row
        assert a.column == b.column

    def test_permutation_breaks_bank_camping(self) -> None:
        # A row-size x bank-count stride camps on one bank under the
        # plain mapping; the permuted scheme spreads it.
        stride = 2048 * 16 * 6  # one full row of every bank, all channels
        plain_banks = {
            self.plain.decode(i * stride).bank for i in range(16)
        }
        perm_banks = {
            self.perm.decode(i * stride).bank for i in range(16)
        }
        assert len(plain_banks) == 1
        assert len(perm_banks) == 16

    def test_bijectivity_within_channel(self) -> None:
        # All (bank, row) pairs of a small window stay distinct.
        seen = set()
        for i in range(16 * 8):
            d = self.perm.decode(i * 2048 * 6)  # channel-0 row blocks
            key = (d.channel, d.bank, d.row)
            assert key not in seen
            seen.add(key)


@settings(max_examples=100, deadline=None)
@given(
    scheme=st.sampled_from(["bank_interleaved", "permuted"]),
    addrs=st.lists(st.integers(min_value=0, max_value=2**40), max_size=50),
)
def test_coord_table_decodes_each_address_on_lookup(scheme, addrs) -> None:
    mapping = AddressMapping(scheme=scheme)
    table = CoordTable(mapping)
    for addr in addrs:
        d = mapping.decode(addr)
        assert table[addr] == (d.channel, d.bank, d.bank_group, d.row, d.column)
    assert sorted(table) == sorted(set(addrs))
