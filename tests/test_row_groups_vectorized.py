"""``dram_row_groups`` (numpy over the whole line walk) against the
one-``decode``-per-line loop it replaced, kept here as the oracle."""

from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.address import AddressMapping
from repro.workloads.layout import ArraySpec
from repro.workloads.traces import dram_row_groups


def scalar_row_groups(space, name, mapping) -> list[list[int]]:
    spec = space.spec(name)
    first_line = spec.base - spec.base % space.line_bytes
    grouped: dict[tuple[int, int, int], list[int]] = {}
    for addr in range(first_line, spec.end, space.line_bytes):
        d = mapping.decode(addr)
        grouped.setdefault((d.channel, d.bank, d.row), []).append(addr)
    return list(grouped.values())


@st.composite
def mappings(draw) -> AddressMapping:
    access = draw(st.sampled_from([32, 64, 128]))
    banks = 2 ** draw(st.integers(0, 5))
    groups = 2 ** draw(st.integers(0, banks.bit_length() - 1))
    mapping = AddressMapping(
        num_channels=draw(st.integers(1, 12)),
        banks_per_channel=banks,
        bank_groups_per_channel=groups,
        interleave_bytes=access * draw(st.integers(1, 8)),
        row_size_bytes=access * draw(st.integers(1, 32)),
        access_bytes=access,
        scheme=draw(st.sampled_from(["bank_interleaved", "permuted"])),
    )
    mapping.validate()
    return mapping


def one_array_space(base: int, nbytes: int, line_bytes: int):
    """The two members of an ``AddressSpace`` the grouping reads, with
    any base (the allocator itself only hands out 256-byte-aligned
    ones)."""
    spec = ArraySpec("A", base, nbytes, 4, False)
    return SimpleNamespace(line_bytes=line_bytes, spec=lambda name: spec)


@settings(max_examples=300, deadline=None)
@given(
    mapping=mappings(),
    base=st.integers(0, 1 << 22),
    nbytes=st.integers(0, 40_000),
    line_bytes=st.sampled_from([32, 64, 128, 256]),
)
def test_matches_scalar_oracle(mapping, base, nbytes, line_bytes) -> None:
    space = one_array_space(base, nbytes, line_bytes)
    expected = scalar_row_groups(space, "A", mapping)
    got = dram_row_groups(space, "A", mapping)
    assert got == expected
    assert all(type(addr) is int for group in got for addr in group)


def test_matches_oracle_on_default_mappings_far_out() -> None:
    # High addresses: rows well past 2**16, both Table I schemes.
    space = one_array_space((1 << 34) + 200, 300_000, 128)
    for scheme in ("bank_interleaved", "permuted"):
        mapping = AddressMapping(scheme=scheme)
        assert dram_row_groups(space, "A", mapping) == scalar_row_groups(
            space, "A", mapping
        )
