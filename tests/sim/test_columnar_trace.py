"""Tests for the columnar trace storage and its row-view shim."""

import pickle
from array import array

import pytest

from repro.dvi.config import DVIConfig, SRScheme
from repro.experiments.cache import ArtifactCache
from repro.isa.opcodes import OpClass, Opcode
from repro.isa import registers as R
from repro.program.builder import ProgramBuilder
from repro.rewrite.edvi import insert_edvi
from repro.sim.functional import FunctionalSimulator, run_program
from repro.sim.reference import ReferenceSimulator
from repro.sim.trace import (
    COLUMNS,
    FLAG_ELIMINATED,
    FLAG_FREES,
    FLAG_PROGRAM,
    FLAG_TAKEN,
    TRACE_FORMAT,
    Trace,
    pack_srcs,
    unpack_srcs,
)
from repro.workloads.suite import get_program

ROW_FIELDS = (
    "seq", "pc", "op", "cls", "dst", "srcs", "addr", "taken",
    "next_pc", "free_mask", "eliminated", "is_program",
)


def eliminating_trace():
    """A trace exercising every column: kills, eliminations, branches."""
    program = insert_edvi(get_program("li_like", 1)).program
    return run_program(program, DVIConfig.full(SRScheme.LVM_STACK)).trace


def assert_rows_equal(mine, theirs):
    assert len(mine) == len(theirs)
    for a, b in zip(mine, theirs):
        for field in ROW_FIELDS:
            assert getattr(a, field) == getattr(b, field)


class TestSrcsPacking:
    @pytest.mark.parametrize("srcs", [(), (1,), (31,), (1, 2), (31, 30), (7, 7)])
    def test_round_trip(self, srcs):
        assert unpack_srcs(pack_srcs(srcs)) == srcs


class TestRowViewEquivalence:
    def test_traces_match_the_reference_interpreter(self):
        """The production engine's trace pickles to the reference
        interpreter's bytes: the same columns and static tables."""
        program = insert_edvi(get_program("li_like", 1)).program
        dvi = DVIConfig.full(SRScheme.LVM_STACK)
        columnar = run_program(program, dvi).trace
        reference = ReferenceSimulator(program, dvi).run().trace
        assert pickle.dumps(columnar) == pickle.dumps(reference)

    def test_records_cannot_be_assigned(self):
        trace = eliminating_trace()
        rows = trace.records
        with pytest.raises(AttributeError):
            trace.records = rows[:100]
        assert trace.records is rows
        assert len(trace) == len(rows)

    def test_row_enums_are_real_enums(self):
        trace = eliminating_trace()
        row = trace.records[0]
        assert isinstance(row.op, Opcode)
        assert isinstance(row.cls, OpClass)

    def test_eliminated_rows_report_no_destination(self):
        trace = eliminating_trace()
        eliminated_loads = [
            r for r in trace.records if r.eliminated and r.op is Opcode.LIVE_LW
        ]
        assert eliminated_loads, "workload must eliminate at least one restore"
        assert all(r.dst == -1 for r in eliminated_loads)
        # A non-eliminated instance at the same pc keeps its destination.
        by_pc = {r.pc for r in eliminated_loads}
        survivors = [
            r for r in trace.records
            if r.pc in by_pc and not r.eliminated
        ]
        assert all(r.dst >= 0 for r in survivors)

    def test_flags_column_encoding(self):
        trace = eliminating_trace()
        for row, flag in zip(trace.records, trace.flags):
            assert bool(flag & FLAG_TAKEN) == row.taken
            assert bool(flag & FLAG_ELIMINATED) == row.eliminated
            assert bool(flag & FLAG_PROGRAM) == row.is_program
            assert bool(flag & FLAG_FREES) == bool(row.free_mask)


class TestPickling:
    def test_plain_pickle_round_trip(self):
        trace = eliminating_trace()
        clone = pickle.loads(pickle.dumps(trace))
        assert clone.program_name == trace.program_name
        assert clone.dvi == trace.dvi
        assert clone.completed == trace.completed
        assert clone.end_pc == trace.end_pc
        assert clone.pcs == trace.pcs
        assert clone.flags == trace.flags
        assert_rows_equal(clone.records, trace.records)

    def test_cache_round_trip(self, tmp_path):
        """The experiment artifact cache stores and restores traces."""
        cache = ArtifactCache(tmp_path, version="test")
        trace = eliminating_trace()
        key = ("wl", 1, True, trace.dvi, TRACE_FORMAT)
        cache.store("trace", key, trace)
        hit, loaded = cache.lookup("trace", key)
        assert hit
        assert len(loaded) == len(trace)
        assert_rows_equal(loaded.records[:200], trace.records[:200])

    def test_cache_key_distinguishes_trace_formats(self, tmp_path):
        """Old- and new-format traces must occupy distinct cache cells."""
        cache = ArtifactCache(tmp_path, version="test")
        dvi = DVIConfig.none()
        new_key = ("wl", 1, False, dvi, TRACE_FORMAT)
        old_key = ("wl", 1, False, dvi)  # the pre-columnar key shape
        assert cache.digest("trace", new_key) != cache.digest("trace", old_key)
        assert (
            cache.digest("trace", new_key)
            != cache.digest("trace", ("wl", 1, False, dvi, TRACE_FORMAT - 1))
        )

    def test_state_holds_exactly_the_table_columns(self):
        trace = eliminating_trace()
        state = trace.__reduce_ex__(pickle.HIGHEST_PROTOCOL)[2]
        assert set(state) == {name for name, _ in COLUMNS} | {
            "format", "program_name", "dvi", "completed", "end_pc",
        }
        assert state["format"] == TRACE_FORMAT
        for name, typecode in COLUMNS:
            assert state[name].typecode == typecode

    @pytest.mark.parametrize(
        "field", [name for name, _ in COLUMNS] + ["end_pc"]
    )
    def test_payload_missing_a_field_raises(self, field):
        state = eliminating_trace().__getstate__()
        del state[field]
        with pytest.raises(KeyError):
            Trace.__new__(Trace).__setstate__(state)

    def test_format_2_payload_is_healed_by_the_cache(self, tmp_path,
                                                     monkeypatch):
        """A stored trace of the old layout (a ``next_pcs`` column, no
        ``end_pc``) is a corrupt artifact: a miss, tallied, unlinked."""
        cache = ArtifactCache(tmp_path, version="test")
        trace = eliminating_trace()
        state = trace.__getstate__()
        state["format"] = 2
        state["next_pcs"] = array("i", [*trace.pcs[1:], state.pop("end_pc")])
        monkeypatch.setattr(Trace, "__getstate__", lambda self: state)
        key = ("wl", 1, True, trace.dvi, 2)
        digest = cache.store("trace", key, trace)
        monkeypatch.undo()

        assert cache.lookup("trace", key) == (False, None)
        assert cache.counters["trace"].corrupt == 1
        assert not (tmp_path / "trace" / digest[:2] / f"{digest}.pkl").exists()


class TestEdgeCases:
    def test_empty_trace(self):
        trace = Trace("empty", DVIConfig.none())
        assert len(trace) == 0
        assert trace.records == []
        assert trace.program_insts == 0
        assert trace.annotation_insts == 0
        assert trace.op_histogram() == {}
        clone = pickle.loads(pickle.dumps(trace))
        assert len(clone) == 0

    def test_single_halt_trace(self):
        b = ProgramBuilder("halt-only")
        b.label("main")
        b.halt()
        trace = run_program(b.build()).trace
        assert len(trace) == 1
        row = trace.records[0]
        assert row.op is Opcode.HALT
        assert row.next_pc == -1
        assert trace.end_pc == -1
        assert trace.completed
        assert trace.program_insts == 1

    def test_top_level_return_records_sentinel_next_pc(self):
        b = ProgramBuilder("ret")
        with b.proc("main"):
            b.li(R.V0, 9)
            b.epilogue()
        trace = run_program(b.build()).trace
        last = trace.records[-1]
        assert last.op is Opcode.JR
        # The sentinel return address points one past the program.
        assert last.next_pc == len(b.build().insts)
        assert trace.end_pc == last.next_pc

    def test_incomplete_trace_keeps_completed_false(self):
        b = ProgramBuilder("spin")
        b.label("main")
        b.label("top")
        b.j("top")
        trace = run_program(b.build(), max_steps=25).trace
        assert not trace.completed
        assert len(trace) == 25

    def test_max_steps_cut_ends_at_the_resume_pc(self):
        b = ProgramBuilder("line")
        b.label("main")
        for step in range(10):
            b.addi(R.T0, R.T0, step)
        b.halt()
        program = b.build()
        sim = FunctionalSimulator(program, max_steps=4)
        trace = sim.run().trace
        assert not trace.completed
        assert trace.end_pc == sim.pc == program.entry_index + 4
        assert trace.records[-1].next_pc == trace.end_pc
        # Resuming runs exactly the pc the cut trace ended on.
        sim.execute(1)
        assert sim.result().trace.pcs[4] == trace.end_pc
