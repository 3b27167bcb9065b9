"""Tests for the columnar trace storage and its row-view shim."""

import pickle
from array import array

import pytest

from repro.experiments import EXPERIMENTS
from repro.dvi.config import DVIConfig, SRScheme
from repro.errors import SimulationError
from repro.experiments.cache import ArtifactCache
from repro.experiments.runner import ExperimentContext, ExperimentProfile
from repro.isa.opcodes import OpClass, Opcode
from repro.isa import registers as R
from repro.program.builder import ProgramBuilder
from repro.rewrite.edvi import insert_edvi
from repro.sim.functional import FunctionalSimulator, run_program, simulator
from repro.sim import functional_native
from repro.sim.functional_native import NativeFunctionalSimulator
from repro.sim.reference import ReferenceSimulator
from repro.sim.trace import (
    COLUMNS,
    FLAG_ELIMINATED,
    FLAG_FREES,
    FLAG_PROGRAM,
    FLAG_TAKEN,
    FREEING_ROW,
    MEMORY_ROW,
    PC,
    ROW,
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


#: The tiny profile's workloads, each as the plain binary under no DVI
#: and as the E-DVI binary under every mechanism (kills, call/return
#: frees, eliminated saves and restores).
TINY_RUNS = [
    pytest.param(workload, edvi, dvi, id=f"{workload}-{name}")
    for workload in ExperimentProfile.tiny().workloads
    for name, edvi, dvi in (
        ("plain", False, DVIConfig.none()),
        ("edvi-full", True, DVIConfig.full(SRScheme.LVM_STACK)),
    )
]


def tiny_program(workload, edvi):
    program = get_program(workload, ExperimentProfile.tiny().scale)
    return insert_edvi(program).program if edvi else program


def lvm_program():
    """A loop that stores and reloads the LVM: NOP-class memory touches."""
    b = ProgramBuilder("lvm")
    with b.proc("main"):
        b.li(R.T0, 3)
        b.label("top")
        b.lvm_save(0, R.SP)
        b.sw(R.T0, -4, R.SP)
        b.lvm_load(0, R.SP)
        b.addi(R.T0, R.T0, -1)
        b.bgtz(R.T0, "top")
        b.epilogue()
    return b.build()


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
        assert set(state) == {name for name, _, _ in COLUMNS} | {
            "format", "program_name", "dvi", "completed", "end_pc",
        }
        assert state["format"] == TRACE_FORMAT
        for name, typecode, _ in COLUMNS:
            assert state[name].typecode == typecode

    @pytest.mark.parametrize(
        "field", [name for name, _, _ in COLUMNS] + ["end_pc"]
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
        assert not cache._path("trace", digest).exists()

    def test_format_3_payload_is_healed_by_the_cache(self, tmp_path,
                                                     monkeypatch):
        """A stored trace of the dense layout (an ``addrs`` and a
        ``free_masks`` entry on every row, as int64s) has every field
        format 4 reads, and is still refused: a miss, tallied, unlinked."""
        cache = ArtifactCache(tmp_path, version="test")
        trace = eliminating_trace()
        state = trace.__getstate__()
        state["format"] = 3
        state["addrs"] = array("q", trace.per_row("addrs"))
        state["free_masks"] = array("q", trace.per_row("free_masks"))
        monkeypatch.setattr(Trace, "__getstate__", lambda self: state)
        key = ("wl", 1, True, trace.dvi, 3)
        digest = cache.store("trace", key, trace)
        monkeypatch.undo()

        assert cache.lookup("trace", key) == (False, None)
        assert cache.counters["trace"].corrupt == 1
        assert not cache._path("trace", digest).exists()


def engine_traces(program, dvi):
    """The trace of each engine: native, per-pc, reference."""
    native = simulator(program, dvi)
    if not isinstance(native, NativeFunctionalSimulator):
        pytest.skip("native functional engine unavailable: "
                    f"{functional_native.ENGINE.reason}")
    return {
        "native": native.run().trace,
        "per-pc": FunctionalSimulator(program, dvi).run().trace,
        "reference": ReferenceSimulator(program, dvi).run().trace,
    }


def dense_rows(program, dvi):
    """Each row's ``(addr, free_mask)`` as a format-3 trace stored them:
    the values the per-pc engine's handlers return, recorded row by row."""
    sim = FunctionalSimulator(program, dvi)
    recorded = []

    def recording(handler):
        def run():
            result = handler()
            recorded.append((result[1], result[3]))
            return result
        return run

    sim._handlers = [recording(handler) for handler in sim._handlers]
    sim.run()
    return recorded


class TestSparseColumns:
    """Format 4: ``addrs`` on memory rows only, ``free_masks`` on
    freeing rows only."""

    def test_columns_table_names_every_index(self):
        assert [(name, index) for name, _, index in COLUMNS] == [
            ("pcs", ROW), ("addrs", MEMORY_ROW), ("free_masks", FREEING_ROW),
            ("flags", ROW), ("s_op", PC), ("s_cls", PC), ("s_dst", PC),
            ("s_srcs", PC),
        ]

    @pytest.mark.parametrize(
        "workload, edvi, dvi",
        TINY_RUNS + [pytest.param("lvm", False, DVIConfig.none(), id="lvm")],
    )
    def test_one_entry_per_memory_row_and_per_freeing_row(
            self, workload, edvi, dvi):
        program = (lvm_program() if workload == "lvm"
                   else tiny_program(workload, edvi))
        traces = engine_traces(program, dvi)
        for engine, trace in traces.items():
            classes = [trace.s_cls[pc] for pc in trace.pcs]
            memory = sum(cls in (OpClass.LOAD, OpClass.STORE)
                         for cls in classes)
            freeing = sum(1 for fl in trace.flags if fl & FLAG_FREES)
            assert (len(trace.addrs), len(trace.free_masks)) == (
                memory, freeing), engine
            assert all(trace.free_masks), engine
            assert trace.addrs.typecode == trace.free_masks.typecode == "I"
        native = pickle.dumps(traces["native"])
        assert all(pickle.dumps(trace) == native for trace in traces.values())

    def test_nop_class_memory_touches_keep_no_address(self):
        trace = run_program(lvm_program()).trace
        lvm_rows = [row for row in trace.records
                    if row.op in (Opcode.LVM_SAVE, Opcode.LVM_LOAD)]
        assert len(lvm_rows) == 6
        assert all(row.addr == -1 for row in lvm_rows)
        assert len(trace.addrs) == 3  # the three sw

    @pytest.mark.parametrize("workload, edvi, dvi", TINY_RUNS)
    def test_row_view_reports_the_dense_values(self, workload, edvi, dvi):
        """The row view's ``addr`` (-1 off the memory rows) and
        ``free_mask`` (0 off the freeing rows) are format 3's."""
        program = tiny_program(workload, edvi)
        trace = run_program(program, dvi).trace
        expected = dense_rows(program, dvi)
        assert [(row.addr, row.free_mask) for row in trace.records] == expected
        assert trace.addrs
        if edvi:
            assert trace.free_masks, "the E-DVI run frees registers"

    @pytest.mark.parametrize("name", ["addrs", "free_masks"])
    @pytest.mark.parametrize("change", ["drop", "add"])
    def test_row_view_refuses_a_mismatched_sparse_column(self, name, change):
        trace = eliminating_trace()
        column = getattr(trace, name)
        setattr(trace, name, column[:-1] if change == "drop"
                else column + array(column.typecode, [2]))
        with pytest.raises(SimulationError, match="not the columnar layout"):
            trace.records

    def test_cold_tiny_run_all_stores_under_5_5_mb_of_traces(self, tmp_path):
        """Format 3 stored 15.6 MB of trace pickles on this run."""
        profile = ExperimentProfile.tiny()
        cache = ArtifactCache(tmp_path, version="test")
        context = ExperimentContext(profile, cache=cache)
        for module, _ in EXPERIMENTS.values():
            module.run(profile, context)
        sizes = [entry.size for entry in cache.entries()
                 if entry.kind == "trace"]
        assert len(sizes) == 16
        assert sum(sizes) <= 5_500_000


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
