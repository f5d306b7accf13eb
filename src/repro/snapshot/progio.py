"""Canonical serialization of an assembled :class:`Program` image.

Snapshots must be restorable in a fresh process, so they carry the whole
program (segments, symbols, decoded instructions); the run cache's key
names the program by :func:`program_digest`, the SHA-256 of the same
canonical bytes.  Instructions are stored as explicit ``(addr, mnemonic,
rd, rs1, rs2, imm)`` rows and re-bound to their :class:`InstrSpec` by
mnemonic — the round-trip does not depend on binary encode/decode.
"""

import base64
import hashlib
import json

from repro.asm.program import Program, Segment
from repro.isa.instruction import Instruction
from repro.isa.spec import INSTR_SPECS


def program_state(program):
    """*program* as plain data (bytes for segment payloads)."""
    return {
        "source_name": program.source_name,
        "symbols": dict(program.symbols),
        "segments": [
            {"kind": seg.kind, "bank": seg.bank, "base": seg.base,
             "data": bytes(seg.data)}
            for seg in program.segments
        ],
        "instructions": [
            [addr, ins.mnemonic, ins.rd, ins.rs1, ins.rs2, ins.imm]
            for addr, ins in sorted(program.instructions.items())
        ],
    }


def program_from_state(state):
    """Rebuild a :class:`Program` from :func:`program_state` data."""
    program = Program()
    program.source_name = state["source_name"]
    program.symbols = dict(state["symbols"])
    program.segments = [
        Segment(seg["kind"], seg["bank"], seg["base"], bytearray(seg["data"]))
        for seg in state["segments"]
    ]
    for addr, mnemonic, rd, rs1, rs2, imm in state["instructions"]:
        try:
            spec = INSTR_SPECS[mnemonic]
        except KeyError:
            raise ValueError(
                "snapshot names unknown instruction %r" % (mnemonic,)
            ) from None
        program.instructions[addr] = Instruction(
            mnemonic, rd, rs1, rs2, imm, spec=spec, addr=addr)
    return program


def program_bytes(program):
    """Canonical bytes of *program* — the cache key's program component.

    Deterministic: sorted keys, no whitespace, segment payloads base64.
    """
    state = program_state(program)
    for seg in state["segments"]:
        seg["data"] = base64.b64encode(seg["data"]).decode("ascii")
    return json.dumps(state, sort_keys=True, separators=(",", ":")).encode("utf-8")


def program_digest(program):
    """Hex SHA-256 of the canonical bytes of *program* (a Program or
    those bytes) — the ``"program"`` component of a run-cache key."""
    if not isinstance(program, (bytes, bytearray)):
        program = program_bytes(program)
    return hashlib.sha256(program).hexdigest()
