"""Trace container with persistence and reference-stream views."""

from __future__ import annotations

from typing import BinaryIO, Iterable, Iterator, List, Tuple, Union

import numpy as np

from repro.cache.cache import AccessKind
from repro.cpu.core import derive_references
from repro.cpu.isa import (
    OP_CLASSES,
    Instruction,
    InstructionColumns,
    as_columns,
)

_KINDS: Tuple[AccessKind, ...] = tuple(AccessKind)


class Trace:
    """A committed-path instruction trace, held as columns.

    Attributes:
        name: workload name (e.g. ``"mcf"``).
        seed: generator seed (identifies the trace together with name/len).
        columns: the instructions, program order, as
            :class:`~repro.cpu.isa.InstructionColumns` (the eight columns
            :meth:`save` writes).
        description: human-readable workload summary.

    ``instructions`` may be columns or :class:`Instruction` objects (packed
    once); either way the columns are validated as :class:`Instruction`
    validates one record, with its error messages.  :attr:`instructions`
    and iteration build :class:`Instruction` objects on demand; nothing
    keeps them.  Traces are equal when their name, seed, description and
    columns are.
    """

    __slots__ = ("name", "seed", "columns", "description")

    def __init__(
        self,
        name: str,
        seed: int,
        instructions: Union[InstructionColumns, Iterable[Instruction]],
        description: str = "",
    ) -> None:
        self.name = name
        self.seed = seed
        self.columns = InstructionColumns.of(*as_columns(instructions))
        self.columns.validate()
        self.description = description

    @property
    def instructions(self) -> List[Instruction]:
        """The instruction records, program order, built afresh."""
        return self.columns.instructions()

    def __len__(self) -> int:
        return len(self.columns.op)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return ((self.name, self.seed, self.description)
                == (other.name, other.seed, other.description)
                and all(map(np.array_equal, self.columns, other.columns)))

    def __repr__(self) -> str:
        return (f"Trace(name={self.name!r}, seed={self.seed!r}, "
                f"instructions={len(self)})")

    # ------------------------------------------------------------- analysis

    def memory_references(
        self, fetch_block_size: int = 32
    ) -> Iterator[Tuple[int, AccessKind]]:
        """The reference stream the cache hierarchy sees, program order.

        Instruction fetches are emitted once per L1I-line change (a fetch
        group inside one line is one cache access; a taken branch always
        starts a new fetch); loads and stores are emitted per instruction.
        This is the stream the coverage experiments replay: the core's
        derivation (:func:`repro.cpu.core.derive_references`) with lines
        ended only by taken branches, as ``(int, AccessKind)`` pairs.
        """
        addresses, kinds, _, _ = derive_references(
            self.columns, fetch_block_size, taken_only=True)
        return zip(addresses.tolist(), map(_KINDS.__getitem__, kinds.tolist()))

    def op_counts(self) -> dict:
        """Instruction counts per op class."""
        counts = np.bincount(self.columns.op, minlength=len(OP_CLASSES))
        return dict(zip(OP_CLASSES, counts.tolist()))

    @property
    def data_references(self) -> int:
        return sum(count for op, count in self.op_counts().items()
                   if op.is_memory)

    # ---------------------------------------------------------- persistence

    def save(self, path: Union[str, BinaryIO]) -> None:
        """Serialise to a compressed ``.npz`` file (a path or binary file).

        pc is written as uint32, the other columns in their own dtypes.
        """
        pc = self.columns.pc
        if len(pc) and (int(pc.min()) < 0 or int(pc.max()) >> 32):
            raise ValueError("a pc outside 0..2**32-1 does not fit the "
                             "saved uint32 pc column")
        np.savez_compressed(
            path,
            name=np.array(self.name),
            seed=np.array(self.seed),
            description=np.array(self.description),
            **self.columns._replace(pc=pc.astype(np.uint32))._asdict(),
        )

    @classmethod
    def load(cls, path: Union[str, BinaryIO]) -> "Trace":
        """Load a trace produced by :meth:`save`, reading each member once."""
        with np.load(path, allow_pickle=False) as data:
            columns = InstructionColumns(
                *map(data.__getitem__, InstructionColumns._fields))
            return cls(
                name=str(data["name"]),
                seed=int(data["seed"]),
                instructions=columns,
                description=str(data["description"]),
            )
