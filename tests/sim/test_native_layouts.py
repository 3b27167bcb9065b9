"""Every native vector's layout, declared once in Python, matches its C enum.

Each C engine names the entries of a vector the way its Python table
names them, upper-cased behind the vector's prefix.  These tests read
every enum out of both C files and hold it to its table, so a reordering
or a rename on one side fails here instead of misassigning fields.
"""

import re
from pathlib import Path

from repro.isa.opcodes import OpClass, Opcode
from repro.sim import functional_native
from repro.sim.ooo import native


def enums(source: Path) -> dict:
    """Every ``enum { ... }`` in ``source``: prefix -> names after it,
    in order (the ``N_*`` count that closes an enum left out)."""
    text = re.sub(r"/\*.*?\*/", "", source.read_text(), flags=re.S)
    found = {}
    for body in re.findall(r"enum\s*\{(.*?)\}", text, flags=re.S):
        names = [item.split("=")[0].strip() for item in body.split(",")]
        names = [name for name in names if name and not name.startswith("N_")]
        prefix = names[0].split("_")[0] + "_"
        assert all(name.startswith(prefix) for name in names), names
        assert prefix not in found, f"two enums share the prefix {prefix}"
        found[prefix] = [name[len(prefix):] for name in names]
    return found


def upper(names) -> list:
    return [name.upper() for name in names]


def test_kernel_enums_match_their_tables():
    assert enums(native.SOURCE) == {
        "CLS_": [cls.name for cls in OpClass],
        "OP_": [op.name for op in Opcode],
        "PK_": [kind.upper().replace("-", "_")
                for kind in native.PREDICTOR_KINDS],
        "P_": upper(name for name, _ in native.PARAMS),
        "R_": upper(native.RESULTS),
        "ST_": upper(native.STATUSES),
    }


def test_functional_engine_enums_match_their_tables():
    assert enums(functional_native.SOURCE) == {
        "OP_": [op.name for op in Opcode],
        "I_": upper(functional_native.FIELDS),
        "CFG_": upper(name for name, _ in functional_native.CONFIG),
        "S_": upper(functional_native.STATE),
        "SCHEME_": [scheme.name for scheme in functional_native.SCHEMES],
        "ST_": upper(functional_native.STATUSES),
    }


def test_the_parser_sees_a_reordering(tmp_path):
    swapped = native.SOURCE.read_text().replace(
        "R_CYCLES, R_PROGRAM_INSTS", "R_PROGRAM_INSTS, R_CYCLES")
    source = tmp_path / "kernel.c"
    source.write_text(swapped)
    assert enums(source)["R_"][:2] == ["PROGRAM_INSTS", "CYCLES"]
