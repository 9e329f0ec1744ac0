"""Declarative ISA/encoding specifications.

eQASM's binary format is an *instantiation-time* choice (paper §III:
"the binary format is defined during the instantiation of eQASM").
This package makes that literal: an instantiation's format is a value —
an :class:`EncodingSpec` — instead of code, and the generic
encoder/decoder in :mod:`repro.core.encoding` interprets it with
table-driven field packing.

Spec format contract
--------------------
An :class:`EncodingSpec` consists of:

* ``instruction_width`` — word width ``W`` in bits, a multiple of 8,
  at least 32;
* a shared classical **opcode field** (``opcode_offset`` /
  ``opcode_width``) present in every single-word format;
* ``formats`` — one :class:`FormatSpec` per single-word instruction
  format: a unique name (a mnemonic of the instruction table,
  :data:`repro.core.instructions.MNEMONICS`), a unique
  opcode, and named :class:`FieldSpec` bit-fields.  Each field carries
  the LSB ``offset``, ``width``, the instruction ``attr`` it binds, and
  a ``codec`` name (one of :data:`~repro.core.isaspec.model.FIELD_CODECS`)
  that translates attribute values to raw field bits and back;
* optionally a ``bundle`` :class:`BundleSpec` — the quantum-bundle
  word: a flag bit (the word's top bit; set = bundle, clear = single
  format), a PI (pre-interval) field, and per-VLIW-lane
  :class:`BundleSlotSpec` (q opcode + target-register index) layouts.

Specs serialize losslessly to JSON; registered instantiations ship as
checked-in files under ``specs/`` (see :mod:`.registry`).

Validation invariants
---------------------
:func:`validate_spec` enforces, for every spec before it is used:

1. **No field overlap** — within each format, fields (plus the shared
   opcode field and the bundle flag bit) claim disjoint bits; likewise
   for the bundle word's flag/PI/slot regions.
2. **Width coverage** — every field lies inside ``[0, W)``; the word
   width is a multiple of 8 and at least 32.
3. **Opcode sanity** — opcodes are unique and fit ``opcode_width``.
4. **Signed-range sanity** — signed codecs get at least 2 bits.
5. **Exhaustiveness** — format names and the instruction table's
   mnemonics (the ones the parser accepts) match in both directions,
   and each format's fields bind exactly the required constructor
   attributes of its instruction class.
6. **Known codecs** — every field codec has an implementation.

Invalid specs raise :class:`repro.core.errors.SpecError` at load time.
Use ``python -m repro.core.isaspec validate`` to check spec files and
render markdown encoding reports.
"""

from repro.core.isaspec.bindings import CODECS
from repro.core.isaspec.build import FAMILY_OPCODES, build_encoding_spec
from repro.core.isaspec.model import (
    FIELD_CODECS,
    BundleSlotSpec,
    BundleSpec,
    EncodingSpec,
    FieldSpec,
    FormatSpec,
)
from repro.core.isaspec.registry import (
    REGISTERED_SPECS,
    load_registered_spec,
    registered_spec_names,
)
from repro.core.isaspec.report import render_report
from repro.core.isaspec.validate import ensure_valid, validate_spec

__all__ = [
    "BundleSlotSpec",
    "BundleSpec",
    "CODECS",
    "EncodingSpec",
    "FAMILY_OPCODES",
    "FIELD_CODECS",
    "FieldSpec",
    "FormatSpec",
    "REGISTERED_SPECS",
    "build_encoding_spec",
    "ensure_valid",
    "load_registered_spec",
    "registered_spec_names",
    "render_report",
    "validate_spec",
]
