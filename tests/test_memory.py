"""Tests for the sparse memory model."""

import pytest

from repro.isa.assembler import assemble
from repro.iss.memory import Memory, MemoryError_


class TestByteAccess:
    def test_uninitialised_memory_reads_zero(self):
        memory = Memory()
        assert memory.read_byte(0x1234) == 0

    def test_byte_roundtrip(self):
        memory = Memory()
        memory.write_byte(0x40000000, 0xAB)
        assert memory.read_byte(0x40000000) == 0xAB

    def test_byte_values_masked(self):
        memory = Memory()
        memory.write_byte(0, 0x1FF)
        assert memory.read_byte(0) == 0xFF

    def test_bytes_block_roundtrip(self):
        memory = Memory()
        memory.write_bytes(0x100, b"hello")
        assert memory.read_bytes(0x100, 5) == b"hello"

    def test_sparse_pages_allocated_on_demand(self):
        memory = Memory()
        memory.write_byte(0x40000000, 1)
        memory.write_byte(0x80000000, 2)
        assert len(list(memory.allocated_pages())) == 2


class TestWordAccess:
    def test_word_big_endian_layout(self):
        memory = Memory()
        memory.write_word(0x200, 0x11223344)
        assert memory.read_bytes(0x200, 4) == b"\x11\x22\x33\x44"

    def test_word_roundtrip(self):
        memory = Memory()
        memory.write_word(0x204, 0xCAFEBABE)
        assert memory.read_word(0x204) == 0xCAFEBABE

    def test_misaligned_word_read_raises(self):
        with pytest.raises(MemoryError_):
            Memory().read_word(0x201)

    def test_misaligned_word_write_raises(self):
        with pytest.raises(MemoryError_):
            Memory().write_word(0x202, 0)

    def test_half_roundtrip_and_alignment(self):
        memory = Memory()
        memory.write_half(0x300, 0xBEEF)
        assert memory.read_half(0x300) == 0xBEEF
        with pytest.raises(MemoryError_):
            memory.read_half(0x301)

    def test_double_roundtrip(self):
        memory = Memory()
        memory.write_double(0x400, 0x11111111, 0x22222222)
        assert memory.read_double(0x400) == (0x11111111, 0x22222222)

    def test_double_alignment_enforced(self):
        with pytest.raises(MemoryError_):
            Memory().read_double(0x404)

    def test_sized_access_dispatch(self):
        memory = Memory()
        memory.write_sized(0x500, 0xAA, 1)
        memory.write_sized(0x502, 0xBBCC, 2)
        memory.write_sized(0x504, 0xDDEEFF00, 4)
        assert memory.read_sized(0x500, 1) == 0xAA
        assert memory.read_sized(0x502, 2) == 0xBBCC
        assert memory.read_sized(0x504, 4) == 0xDDEEFF00

    def test_unsupported_size_raises(self):
        with pytest.raises(MemoryError_):
            Memory().read_sized(0, 3)

    def test_word_wraps_to_32_bits(self):
        memory = Memory()
        memory.write_word(0, 0x1_FFFF_FFFF)
        assert memory.read_word(0) == 0xFFFFFFFF

    def test_unmapped_word_read_allocates_no_page(self):
        # The dirty-page digest and checkpoint capture rely on reads never
        # materialising pages.
        memory = Memory()
        assert memory.read_word(0x40001FFC) == 0
        assert memory.read_double(0x80000000) == (0, 0)
        assert memory.allocated_pages() == ()

    def test_word_write_allocates_its_page(self):
        memory = Memory()
        memory.write_word(0x40000FFC, 0x01020304)
        assert memory.allocated_pages() == (0x40000,)
        assert memory.read_bytes(0x40000FFC, 4) == b"\x01\x02\x03\x04"
        assert memory.read_word(0x40001000) == 0
        assert memory.allocated_pages() == (0x40000,)

    def test_word_addresses_wrap_to_32_bits(self):
        memory = Memory()
        memory.write_word(0x1_0000_0010, 0xDEADBEEF)
        assert memory.read_word(0x10) == 0xDEADBEEF
        assert memory.read_word(0x1_0000_0010) == 0xDEADBEEF


class TestProgramLoading:
    def test_load_program_places_text_and_data(self):
        program = assemble(
            ".text\nstart:\n        nop\n.data\nvalues:\n        .word 0x11223344\n"
        )
        memory = Memory()
        memory.load_program(program)
        assert memory.read_word(program.text_base) == program.text[0]
        assert memory.read_word(program.data_base) == 0x11223344

    def test_clear_releases_pages(self):
        memory = Memory()
        memory.write_word(0x40000000, 5)
        memory.clear()
        assert memory.read_word(0x40000000) == 0
        assert not list(memory.allocated_pages())

    def test_copy_is_independent(self):
        memory = Memory()
        memory.write_word(0x40, 1)
        clone = memory.copy()
        clone.write_word(0x40, 2)
        assert memory.read_word(0x40) == 1
        assert clone.read_word(0x40) == 2
