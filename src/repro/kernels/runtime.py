"""Kernel runtime: memory layout, I/O conventions, execution harness.

Every cipher kernel follows the same session shape the paper measures: the
Python harness plays the role of key-setup caller and DMA engine -- it lays
out tables, key schedules, the IV and the plaintext in simulator memory --
and the RISC-A kernel encrypts the whole session in CBC mode (keeping the
chaining vector in registers, as the optimized C implementations do), after
which the harness validates the ciphertext byte-for-byte against the
reference cipher.

**Word-order convention.**  Simulator memory is little-endian (Alpha).
Ciphers specified with big-endian 32-bit words (DES, Blowfish, IDEA,
Rijndael) have their I/O buffers packed so that a 32-bit load yields the
spec's word value -- equivalent to running on a big-endian machine or to a
byte-swapping DMA engine, and identical in kernel instruction counts either
way.  Little-endian ciphers (MARS, RC6, Twofish) and byte-stream RC4 use raw
bytes.  Validation applies the same transform to the reference output, so it
remains an exact end-to-end check.

**Memory map** (all tables 1 KB-aligned as the SBOX instruction requires)::

    0x00001000  tables      (S-boxes, SP tables, fused g-tables, ...)
    0x0000D000  keys        (round-key schedules)
    0x0000F000  iv / misc parameters
    0x00010000  input buffer
    input+pad   output buffer
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.isa import Features, KernelBuilder
from repro.isa.program import Program
from repro.sim.machine import Machine, RunResult, SimulationError, StreamingTrace
from repro.sim.memory import Memory
from repro.sim.trace import DEFAULT_CHUNK_SIZE, Trace

TABLES_BASE = 0x1000
KEYS_BASE = 0xD000
IV_BASE = 0xF000
INPUT_BASE = 0x10000


def pack_words_be(data: bytes, width: int = 4) -> bytes:
    """Reverse each aligned ``width``-byte group (big-endian convention)."""
    if len(data) % width:
        raise ValueError(f"data must be a multiple of {width} bytes")
    out = bytearray(len(data))
    for i in range(0, len(data), width):
        out[i : i + width] = data[i : i + width][::-1]
    return bytes(out)


@dataclass
class Layout:
    """Resolved addresses for one kernel run."""

    tables: int
    keys: int
    iv: int
    input: int
    output: int
    session_bytes: int


@dataclass
class KernelRun:
    """Result of one functional kernel execution.

    ``trace`` is ``None`` for streamed executions (the trace chunks were
    consumed by a timing pipeline as they were produced; see
    :class:`KernelStream`).
    """

    trace: Trace | None
    ciphertext: bytes
    instructions: int
    session_bytes: int
    #: Address ranges the key setup just wrote (tables, schedules); passed to
    #: ``simulate(..., warm_ranges=...)`` so timing starts with them cached.
    warm_ranges: list[tuple[int, int]] = None

    @property
    def instructions_per_byte(self) -> float:
        """The paper's "1 CPI machine" metric basis."""
        return self.instructions / self.session_bytes


@dataclass
class KernelStream:
    """A kernel execution prepared for streaming consumption.

    ``source`` is a single-pass :class:`~repro.sim.machine.StreamingTrace`:
    the functional interpreter advances only as a consumer (normally a
    timing pipeline built by :func:`repro.sim.timing.make_pipeline`) pulls
    trace chunks, so the full dynamic trace never materializes.  Output validation necessarily
    moves to the end of the run: call :meth:`finalize` after exhausting the
    source to check the ciphertext against the reference cipher and get
    the usual :class:`KernelRun` record (with ``trace=None``).
    """

    source: StreamingTrace
    warm_ranges: list[tuple[int, int]]
    session_bytes: int
    _kernel: "CipherKernel"
    _layout: Layout
    _data: bytes
    _iv: bytes | None
    _decrypt: bool
    _validate: bool

    @property
    def program(self) -> Program:
        return self.source.program

    def finalize(self) -> KernelRun:
        """Validate the output once the stream is exhausted."""
        machine = self.source.machine
        if not machine.halted:
            raise SimulationError(
                f"{self._kernel.name}: stream not exhausted -- consume all "
                "trace chunks before finalize()"
            )
        kernel = self._kernel
        layout = self._layout
        data = self._data
        output = kernel._unpack(
            machine.memory.read_bytes(layout.output, len(data))
        )
        if self._validate:
            reference = (
                kernel.reference_decrypt if self._decrypt
                else kernel.reference_encrypt
            )
            expected = reference(data, self._iv or b"")
            if output != expected:
                direction = "decryption" if self._decrypt else "encryption"
                raise AssertionError(
                    f"{kernel.name} [{kernel.features.label}] {direction} "
                    f"output diverges from reference: {output[:16].hex()} "
                    f"!= {expected[:16].hex()}"
                )
        return KernelRun(
            trace=None,
            ciphertext=output,
            instructions=machine.instructions_executed,
            session_bytes=self.session_bytes,
            warm_ranges=self.warm_ranges,
        )


class CipherKernel(ABC):
    """A cipher's RISC-A implementation at one feature level.

    Subclasses provide table/key-schedule initialization and the kernel
    program; the base class provides the run-and-validate harness.
    """

    #: Cipher name (matches ``repro.ciphers.suite``).
    name: str = ""
    #: Block size in bytes (1 for the RC4 stream kernel).
    block_bytes: int = 0
    #: 'be' for big-endian 32-bit word ciphers, 'raw' otherwise.
    word_order: str = "raw"
    #: Bytes of table / key-schedule storage (for cache warming).
    tables_bytes: int = 4096
    keys_bytes: int = 512
    #: Shift applied to the whole memory layout (multi-session studies give
    #: each session a disjoint address space).
    base_offset: int = 0

    def __init__(self, key: bytes, features: Features = Features.OPT):
        self.key = key
        self.features = features
        self._program_cache: dict[int, Program] = {}

    # -- subclass interface ------------------------------------------------

    @abstractmethod
    def write_tables(self, memory: Memory, layout: Layout) -> None:
        """Write static tables and the key schedule into memory."""

    @abstractmethod
    def build_program(self, layout: Layout, nblocks: int) -> Program:
        """Emit the encryption kernel for ``nblocks`` blocks."""

    @abstractmethod
    def reference_encrypt(self, plaintext: bytes, iv: bytes) -> bytes:
        """Ground-truth CBC encryption via the reference cipher."""

    def build_decrypt_program(self, layout: Layout, nblocks: int) -> Program:
        """Emit the decryption kernel (kernels that implement one override)."""
        raise NotImplementedError(
            f"{self.name} kernel has no decryption coding"
        )

    def reference_decrypt(self, ciphertext: bytes, iv: bytes) -> bytes:
        """Ground-truth CBC decryption via the reference cipher."""
        raise NotImplementedError(
            f"{self.name} kernel has no decryption reference"
        )

    @property
    def supports_decrypt(self) -> bool:
        return type(self).build_decrypt_program is not CipherKernel.build_decrypt_program

    # -- harness -------------------------------------------------------------

    def _pack(self, data: bytes) -> bytes:
        if self.word_order == "be":
            return pack_words_be(data)
        if self.word_order == "be16":
            return pack_words_be(data, 2)
        return data

    _unpack = _pack

    def layout_for(self, session_bytes: int) -> Layout:
        padded = (session_bytes + 63) & ~63
        shift = self.base_offset
        return Layout(
            tables=TABLES_BASE + shift,
            keys=KEYS_BASE + shift,
            iv=IV_BASE + shift,
            input=INPUT_BASE + shift,
            output=INPUT_BASE + shift + padded + 64,
            session_bytes=session_bytes,
        )

    def make_memory(self, layout: Layout) -> Memory:
        size = layout.output + layout.session_bytes + 4096
        return Memory(size)

    @classmethod
    def blocks_for(cls, session_bytes: int) -> int:
        """Blocks in a session; a partial final block is a ``ValueError``.

        A class method, so the experiment runner can reject a bad session
        length at cache-key time without constructing the kernel.
        """
        if cls.block_bytes > 1 and session_bytes % cls.block_bytes:
            raise ValueError(
                f"{cls.name}: session must be a whole number of "
                f"{cls.block_bytes}-byte blocks"
            )
        return session_bytes // max(cls.block_bytes, 1)

    def program_for(self, session_bytes: int, decrypt: bool = False) -> Program:
        """Build (or reuse) the kernel program for a session length."""
        nblocks = self.blocks_for(session_bytes)
        cache_key = (nblocks, decrypt)
        program = self._program_cache.get(cache_key)
        if program is None:
            builder_fn = (
                self.build_decrypt_program if decrypt else self.build_program
            )
            program = builder_fn(self.layout_for(session_bytes), nblocks)
            self._program_cache[cache_key] = program
        return program

    def prepare(
        self, data: bytes, iv: bytes | None, decrypt: bool = False
    ) -> tuple[Program, Memory, Layout]:
        """Build the program and a fully initialized memory image."""
        program = self.program_for(len(data), decrypt=decrypt)
        layout = self.layout_for(len(data))
        memory = self.make_memory(layout)
        self.write_tables(memory, layout)
        if iv is not None:
            memory.write_bytes(layout.iv, self._pack(iv))
        memory.write_bytes(layout.input, self._pack(data))
        return program, memory, layout

    def _run(
        self,
        data: bytes,
        iv: bytes | None,
        decrypt: bool,
        record_trace: bool,
        record_values: bool,
        validate: bool,
        backend: str | None = None,
    ) -> KernelRun:
        if iv is None and self.block_bytes > 1:
            iv = bytes(self.block_bytes)
        program, memory, layout = self.prepare(data, iv, decrypt=decrypt)
        result = Machine(program, memory).execute(
            backend=backend,
            record_trace=record_trace, record_values=record_values,
        )
        assert isinstance(result, RunResult)
        output = self._unpack(memory.read_bytes(layout.output, len(data)))
        if validate:
            reference = (
                self.reference_decrypt if decrypt else self.reference_encrypt
            )
            expected = reference(data, iv or b"")
            if output != expected:
                direction = "decryption" if decrypt else "encryption"
                raise AssertionError(
                    f"{self.name} [{self.features.label}] {direction} output "
                    f"diverges from reference: {output[:16].hex()} != "
                    f"{expected[:16].hex()}"
                )
        return KernelRun(
            trace=result.trace,
            ciphertext=output,
            instructions=result.instructions,
            session_bytes=len(data),
            warm_ranges=[
                (layout.tables, self.tables_bytes),
                (layout.keys, self.keys_bytes),
                (layout.iv, 64),
            ],
        )

    def encrypt(
        self,
        plaintext: bytes,
        iv: bytes | None = None,
        record_trace: bool = True,
        record_values: bool = False,
        validate: bool = True,
        backend: str | None = None,
    ) -> KernelRun:
        """Run the kernel; validate ciphertext against the reference cipher."""
        return self._run(plaintext, iv, False, record_trace, record_values,
                         validate, backend)

    def decrypt(
        self,
        ciphertext: bytes,
        iv: bytes | None = None,
        record_trace: bool = True,
        record_values: bool = False,
        validate: bool = True,
        backend: str | None = None,
    ) -> KernelRun:
        """Run the decryption kernel; validate against the reference cipher.

        The returned record's ``ciphertext`` field holds the recovered
        plaintext (the field names the kernel's *output* buffer).
        """
        return self._run(ciphertext, iv, True, record_trace, record_values,
                         validate, backend)

    def stream(
        self,
        data: bytes,
        iv: bytes | None = None,
        decrypt: bool = False,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        record_values: bool = False,
        validate: bool = True,
        backend: str | None = None,
    ) -> KernelStream:
        """Prepare a streamed execution (the bounded-memory twin of
        :meth:`encrypt`/:meth:`decrypt`).

        Returns a :class:`KernelStream` whose ``source`` yields trace
        chunks as the kernel executes; validation happens in
        :meth:`KernelStream.finalize` because the output buffer is only
        complete once the stream is exhausted.
        """
        if iv is None and self.block_bytes > 1:
            iv = bytes(self.block_bytes)
        program, memory, layout = self.prepare(data, iv, decrypt=decrypt)
        machine = Machine(program, memory)
        source = machine.execute(
            stream=True, backend=backend,
            chunk_size=chunk_size, record_values=record_values,
        )
        assert isinstance(source, StreamingTrace)
        return KernelStream(
            source=source,
            warm_ranges=[
                (layout.tables, self.tables_bytes),
                (layout.keys, self.keys_bytes),
                (layout.iv, 64),
            ],
            session_bytes=len(data),
            _kernel=self,
            _layout=layout,
            _data=data,
            _iv=iv,
            _decrypt=decrypt,
            _validate=validate,
        )

    def builder(self) -> KernelBuilder:
        return KernelBuilder(self.features)
