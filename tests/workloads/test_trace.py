"""Tests for the trace container, views and persistence.

A trace holds columns; ``reference_memory_references`` below is the
per-instruction generator the columnar ``memory_references`` replaced,
kept as a second reference.
"""

import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.addresses import log2_exact
from repro.cache.cache import AccessKind
from repro.cache.presets import paper_hierarchy_5level
from repro.core.presets import figure15_designs
from repro.cpu.core import core_references
from repro.cpu.isa import Instruction, InstructionColumns, OpClass
from repro.simulate import run_core_trace, run_reference_pass
from repro.workloads import clear_trace_cache, generate_trace, get_trace
from repro.workloads.trace import Trace
from tests.cpu.test_core_references import branch, instruction_lists


def tiny_trace():
    instructions = [
        Instruction(op=OpClass.IALU, pc=0x1000, dest=8, src1=1),
        Instruction(op=OpClass.LOAD, pc=0x1004, dest=9, src1=8,
                    addr=0x2000),
        Instruction(op=OpClass.STORE, pc=0x1008, src1=9, src2=8,
                    addr=0x2008),
        Instruction(op=OpClass.BRANCH, pc=0x100C, src1=9, taken=True,
                    target=0x1000),
        Instruction(op=OpClass.IALU, pc=0x1000, dest=8, src1=1),
    ]
    return Trace(name="tiny", seed=7, instructions=instructions,
                 description="hand trace")


class TestViews:
    def test_len_and_iter(self):
        trace = tiny_trace()
        assert len(trace) == 5
        assert [inst.op for inst in trace][:2] == [OpClass.IALU, OpClass.LOAD]

    def test_memory_references_merge_fetch_and_data(self):
        trace = tiny_trace()
        refs = list(trace.memory_references(fetch_block_size=32))
        # line 0x1000..0x101F fetched once, then load, store; the taken
        # branch forces a refetch of the line for the 5th instruction
        assert refs == [
            (0x1000, AccessKind.INSTRUCTION),
            (0x2000, AccessKind.LOAD),
            (0x2008, AccessKind.STORE),
            (0x1000, AccessKind.INSTRUCTION),
        ]

    def test_line_change_triggers_fetch(self):
        instructions = [
            Instruction(op=OpClass.IALU, pc=0x1000 + 4 * i) for i in range(16)
        ]
        trace = Trace("t", 0, instructions)
        refs = list(trace.memory_references(fetch_block_size=32))
        assert refs == [(0x1000, AccessKind.INSTRUCTION),
                        (0x1020, AccessKind.INSTRUCTION)]

    def test_op_counts(self):
        counts = tiny_trace().op_counts()
        assert counts[OpClass.IALU] == 2
        assert counts[OpClass.LOAD] == 1

    def test_data_references(self):
        assert tiny_trace().data_references == 2


def reference_memory_references(instructions, fetch_block_size):
    """The figures' stream as a per-instruction loop: ``(address, kind)``."""
    line_shift = log2_exact(fetch_block_size)
    current_line = -1
    for inst in instructions:
        line = inst.pc >> line_shift
        if line != current_line:
            current_line = line
            yield inst.pc, AccessKind.INSTRUCTION
        if inst.op is OpClass.LOAD:
            yield inst.addr, AccessKind.LOAD
        elif inst.op is OpClass.STORE:
            yield inst.addr, AccessKind.STORE
        if inst.op is OpClass.BRANCH and inst.taken:
            current_line = -1


class TestMemoryReferences:
    def test_yields_python_ints_and_access_kinds(self):
        refs = list(get_trace("gcc", 2000, 1).memory_references(32))
        assert {type(address) for address, _ in refs} == {int}
        assert {type(kind) for _, kind in refs} == {AccessKind}

    @pytest.mark.parametrize("block", [0, 24, -32])
    def test_rejects_a_fetch_block_not_a_power_of_two(self, block):
        with pytest.raises(ValueError, match="power of two"):
            list(tiny_trace().memory_references(block))


@settings(max_examples=200, deadline=None)
@given(instructions=instruction_lists(),
       block_size=st.sampled_from((4, 8, 16, 32, 64, 128)))
@example(instructions=[], block_size=32)
@example(instructions=[branch(0x100, True), branch(0x104, False),
                       branch(0x108, True)], block_size=4)
def test_memory_references_equal_the_per_instruction_loop(instructions,
                                                          block_size):
    """Generated programs (the core derivation's), the empty trace, and
    back-to-back branches, taken and not, ending the trace."""
    trace = Trace("generated", 0, instructions)
    assert (list(trace.memory_references(block_size))
            == list(reference_memory_references(instructions, block_size)))


@pytest.mark.parametrize("engine", ["interp", "fast"])
def test_no_instruction_object_is_built_to_generate_derive_or_simulate(
        monkeypatch, engine):
    """Generation, both derivations and both simulations read columns."""
    def refuse(self):
        raise AssertionError("an Instruction object was built")

    monkeypatch.setattr(Instruction, "__post_init__", refuse)
    with pytest.raises(AssertionError, match="was built"):
        Instruction(op=OpClass.IALU, pc=0)
    trace = generate_trace("gcc", 3000, seed=31)
    hierarchy = paper_hierarchy_5level()
    references = list(trace.memory_references(32))
    assert len(core_references(trace, 32, 1000).addresses) > 0
    run = run_core_trace(trace, hierarchy, figure15_designs()[0],
                         warmup=1000, engine=engine)
    assert run.core.instructions == len(trace) - 1000
    result = run_reference_pass(references, hierarchy, figure15_designs(),
                                warmup=len(references) // 3, engine=engine)
    assert result.references == len(references) - len(references) // 3


class TestEquality:
    def test_equal_when_name_seed_description_and_columns_are(self):
        assert tiny_trace() == tiny_trace()
        assert get_trace("mcf", 500, 1) == generate_trace("mcf", 500, 1)

    def test_columns_or_metadata_differ(self):
        trace = tiny_trace()
        other = tiny_trace()
        other.columns.addr[1] += 8
        assert trace != other
        assert trace != Trace("tiny", 8, trace.columns, trace.description)
        assert trace != trace.instructions

    def test_repr_is_short(self):
        assert repr(tiny_trace()) == "Trace(name='tiny', seed=7, instructions=5)"


def save_columns(path, **changes):
    """Save ``tiny_trace`` with some columns replaced; returns the path."""
    trace = tiny_trace()
    columns = trace.columns._asdict()
    columns.update(changes)
    np.savez_compressed(path, name=np.array(trace.name),
                        seed=np.array(trace.seed),
                        description=np.array(trace.description), **columns)
    return path


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        trace = tiny_trace()
        path = str(tmp_path / "trace.npz")
        trace.save(path)
        loaded = Trace.load(path)
        assert loaded.name == trace.name
        assert loaded.seed == trace.seed
        assert loaded.description == trace.description
        assert loaded.instructions == trace.instructions

    def test_round_trip_generated_trace(self, tmp_path):
        trace = get_trace("twolf", 2000, seed=3)
        path = str(tmp_path / "twolf.npz")
        trace.save(path)
        loaded = Trace.load(path)
        assert loaded.instructions == trace.instructions
        assert os.path.getsize(path) > 0

    def test_round_trip_keeps_columns_and_dtypes(self, tmp_path):
        trace = generate_trace("mcf", 3000, seed=2)
        path = str(tmp_path / "mcf.npz")
        trace.save(path)
        loaded = Trace.load(path)
        assert loaded == trace
        for column, original in zip(loaded.columns, trace.columns):
            assert column.dtype == original.dtype
            assert np.array_equal(column, original)
        with np.load(path) as data:
            assert data["pc"].dtype == np.uint32

    def test_load_reads_each_member_once(self, tmp_path, monkeypatch):
        """Regression: one decompression per column per instruction."""
        path = str(tmp_path / "gcc.npz")
        generate_trace("gcc", 2000, seed=1).save(path)
        reads = []
        getitem = np.lib.npyio.NpzFile.__getitem__

        def counting(self, key):
            reads.append(key)
            return getitem(self, key)

        monkeypatch.setattr(np.lib.npyio.NpzFile, "__getitem__", counting)
        Trace.load(path)
        assert sorted(reads) == sorted(["name", "seed", "description",
                                        *InstructionColumns._fields])

    @pytest.mark.parametrize("column", ["dest", "src1", "src2"])
    def test_load_rejects_a_register_out_of_range(self, tmp_path, column):
        registers = tiny_trace().columns._asdict()[column].copy()
        registers[2] = 64
        path = save_columns(str(tmp_path / "t.npz"), **{column: registers})
        with pytest.raises(ValueError, match=r"register 64 out of range "
                                             r"\(0\.\.63\)"):
            Trace.load(path)

    @pytest.mark.parametrize("row, op", [(1, "load"), (2, "store")])
    def test_load_rejects_a_memory_op_without_address(self, tmp_path, row,
                                                      op):
        addr = tiny_trace().columns.addr.copy()
        addr[row] = -1
        path = save_columns(str(tmp_path / "t.npz"), addr=addr)
        with pytest.raises(ValueError, match=f"^{op} instruction needs an "
                                             f"address$"):
            Trace.load(path)

    def test_load_rejects_an_unknown_op_code(self, tmp_path):
        ops = tiny_trace().columns.op.copy()
        ops[0] = len(OpClass)
        path = save_columns(str(tmp_path / "t.npz"), op=ops)
        with pytest.raises(ValueError, match="op code 7 out of range"):
            Trace.load(path)

    def test_first_invalid_row_raises_as_instruction_would(self):
        """Rows in order, and within a row Instruction's own check order."""
        columns = tiny_trace().columns
        columns.src2[0] = 70
        columns.addr[1] = -1
        columns.dest[1] = 99
        with pytest.raises(ValueError, match="register 70"):
            Trace("t", 0, columns)
        columns.src2[0] = -1
        with pytest.raises(ValueError, match="load instruction needs"):
            Trace("t", 0, columns)

    def test_save_rejects_a_pc_the_uint32_column_cannot_hold(self, tmp_path):
        trace = Trace("t", 0, [Instruction(op=OpClass.IALU, pc=1 << 32)])
        with pytest.raises(ValueError, match="saved uint32 pc column"):
            trace.save(str(tmp_path / "t.npz"))

    def test_columns_of_unequal_length_rejected(self):
        columns = tiny_trace().columns
        with pytest.raises(ValueError, match="'taken' has 4 rows"):
            Trace("t", 0, columns._replace(taken=columns.taken[:4]))


class TestCache:
    def test_get_trace_memoises(self):
        clear_trace_cache()
        a = get_trace("vpr", 1500, seed=0)
        b = get_trace("vpr", 1500, seed=0)
        assert a is b

    def test_distinct_keys_distinct_traces(self):
        clear_trace_cache()
        a = get_trace("vpr", 1500, seed=0)
        b = get_trace("vpr", 1500, seed=1)
        assert a is not b

    def test_clear(self):
        a = get_trace("vpr", 1500, seed=0)
        clear_trace_cache()
        assert get_trace("vpr", 1500, seed=0) is not a
