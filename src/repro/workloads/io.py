"""Trace serialization.

The paper's proxies were long-lived artifacts ("to have consistent and
repeatable results during the duration of the project") — traces here
can likewise be saved and reloaded bit-exactly, as compact JSON-lines
files (one instruction per line, metadata in a header record).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from ..core.isa import Instruction, InstrClass
from ..errors import TraceError
from .trace import Trace

_FORMAT_VERSION = 1


def _instruction_record(instr: Instruction) -> dict:
    record = {"c": instr.iclass.value, "p": instr.pc}
    if instr.dests:
        record["d"] = list(instr.dests)
    if instr.srcs:
        record["s"] = list(instr.srcs)
    if instr.address is not None:
        record["a"] = instr.address
        record["z"] = instr.size
    if instr.iclass.is_branch:
        record["t"] = int(instr.taken)
        if instr.target is not None:
            record["g"] = instr.target
    if instr.flops:
        record["f"] = instr.flops
    if instr.thread:
        record["h"] = instr.thread
    return record


def _instruction_from(record: dict) -> Instruction:
    return Instruction(
        iclass=InstrClass(record["c"]),
        dests=tuple(record.get("d", ())),
        srcs=tuple(record.get("s", ())),
        address=record.get("a"),
        size=record.get("z", 0),
        taken=bool(record.get("t", 0)),
        target=record.get("g"),
        flops=record.get("f", 0),
        pc=record.get("p", 0),
        thread=record.get("h", 0))


def save_trace(trace: Trace, path: Union[str, Path]) -> None:
    """Write a trace as JSON lines (header + one line per instruction)."""
    path = Path(path)
    header = {
        "version": _FORMAT_VERSION,
        "name": trace.name,
        "suite": trace.suite,
        "weight": trace.weight,
        "metadata": {k: v for k, v in trace.metadata.items()
                     if isinstance(v, (str, int, float, bool, list))},
        "instructions": len(trace),
    }
    with path.open("w") as fh:
        fh.write(json.dumps(header) + "\n")
        for instr in trace.instructions:
            fh.write(json.dumps(_instruction_record(instr),
                                separators=(",", ":")) + "\n")


def load_trace(path: Union[str, Path]) -> Trace:
    """Read a trace written by :func:`save_trace`."""
    path = Path(path)
    with path.open() as fh:
        header_line = fh.readline()
        if not header_line:
            raise TraceError(f"{path}: empty trace file")
        header = json.loads(header_line)
        if header.get("version") != _FORMAT_VERSION:
            raise TraceError(
                f"{path}: unsupported trace format "
                f"{header.get('version')!r}")
        instructions = [_instruction_from(json.loads(line))
                        for line in fh if line.strip()]
    if len(instructions) != header["instructions"]:
        raise TraceError(
            f"{path}: truncated trace ({len(instructions)} of "
            f"{header['instructions']} instructions)")
    return Trace(name=header["name"], instructions=instructions,
                 suite=header.get("suite", ""),
                 weight=header.get("weight", 1.0),
                 metadata=dict(header.get("metadata", {})))
