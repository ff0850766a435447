"""Global-to-DRAM address mapping.

Table I: "global linear address space is interleaved among partitions in
chunks of 256 bytes", 6 memory controllers, 16 banks per controller in
4 bank groups. Within a channel, consecutive row-sized regions are spread
across banks (bank-interleaved rows), the common GPU mapping that maximises
bank-level parallelism for streaming accesses.

The decode pipeline for a 128-byte request address is::

    chunk   = addr // 256
    channel = chunk % num_channels
    local   = (chunk // num_channels) * 256 + addr % 256
    row_blk = local // row_size_bytes
    bank    = row_blk % banks_per_channel
    row     = row_blk // banks_per_channel
    column  = (local % row_size_bytes) // access_bytes
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError

#: ``(channel, bank, bank_group, row, column)`` of one decoded address.
Coords = tuple[int, int, int, int, int]


class CoordTable(dict):
    """``{addr: Coords}`` of one mapping; an address missing from the
    table is decoded on first lookup and kept."""

    def __init__(self, mapping: "AddressMapping") -> None:
        super().__init__()
        self.mapping = mapping

    def __missing__(self, addr: int) -> Coords:
        coords = self.mapping.coords(addr)
        self[addr] = coords
        return coords


@dataclass(frozen=True, slots=True)
class DecodedAddress:
    """A request address after DRAM mapping."""

    channel: int
    bank: int
    bank_group: int
    row: int
    column: int


@dataclass(frozen=True, slots=True)
class AddressMapping:
    """Address interleaving configuration (Table I defaults).

    ``scheme`` selects the bank-index function:

    * ``"bank_interleaved"`` (default) — consecutive row-sized regions go
      to successive banks, the common GPU mapping;
    * ``"permuted"`` — the bank index is XOR-permuted with the low row
      bits (Zhang et al., MICRO 2000 — cited by the paper as a
      data-placement alternative for reducing row-buffer conflicts),
      which breaks power-of-two-stride bank camping.
    """

    num_channels: int = 6
    banks_per_channel: int = 16
    bank_groups_per_channel: int = 4
    interleave_bytes: int = 256
    row_size_bytes: int = 2048
    access_bytes: int = 128
    scheme: str = "bank_interleaved"

    def validate(self) -> None:
        """Check consistency; raise :class:`ConfigError` on violation."""
        if self.num_channels <= 0:
            raise ConfigError("num_channels must be positive")
        if self.scheme not in {"bank_interleaved", "permuted"}:
            raise ConfigError(f"unknown mapping scheme: {self.scheme!r}")
        if self.scheme == "permuted" and (
            self.banks_per_channel & (self.banks_per_channel - 1)
        ):
            raise ConfigError(
                "the permuted scheme needs a power-of-two bank count"
            )
        if self.banks_per_channel % self.bank_groups_per_channel:
            raise ConfigError(
                "banks_per_channel must be a multiple of "
                "bank_groups_per_channel"
            )
        if self.row_size_bytes % self.access_bytes:
            raise ConfigError("row size must be a multiple of access size")
        if self.interleave_bytes % self.access_bytes:
            raise ConfigError(
                "interleave chunk must be a multiple of access size"
            )

    @property
    def banks_per_group(self) -> int:
        """Number of banks in each bank group."""
        return self.banks_per_channel // self.bank_groups_per_channel

    @property
    def columns_per_row(self) -> int:
        """Number of access-sized columns in one row."""
        return self.row_size_bytes // self.access_bytes

    def bank_group_of(self, bank: int) -> int:
        """Bank group index of ``bank`` (consecutive banks share a group)."""
        return bank // self.banks_per_group

    def _permute(self, bank_raw: int, row: int) -> int:
        if self.scheme == "permuted":
            return bank_raw ^ (row & (self.banks_per_channel - 1))
        return bank_raw

    def coords(self, addr: int) -> Coords:
        """:meth:`decode` as a plain ``(channel, bank, bank_group, row,
        column)`` tuple, without the :class:`DecodedAddress`."""
        chunk, offset = divmod(addr, self.interleave_bytes)
        channel = chunk % self.num_channels
        local = (chunk // self.num_channels) * self.interleave_bytes + offset
        row_blk, in_row = divmod(local, self.row_size_bytes)
        bank_raw = row_blk % self.banks_per_channel
        row = row_blk // self.banks_per_channel
        bank = self._permute(bank_raw, row)
        return (
            channel,
            bank,
            self.bank_group_of(bank),
            row,
            in_row // self.access_bytes,
        )

    def decode(self, addr: int) -> DecodedAddress:
        """Decode a byte address into (channel, bank, bank group, row, column)."""
        return DecodedAddress(*self.coords(addr))

    def encode(self, decoded: DecodedAddress) -> int:
        """Inverse of :meth:`decode` (returns the lowest address of the access)."""
        # The XOR permutation is an involution for a fixed row.
        bank_raw = self._permute(decoded.bank, decoded.row)
        row_blk = decoded.row * self.banks_per_channel + bank_raw
        local = row_blk * self.row_size_bytes + decoded.column * self.access_bytes
        chunk, offset = divmod(local, self.interleave_bytes)
        return (
            (chunk * self.num_channels + decoded.channel) * self.interleave_bytes
            + offset
        )
