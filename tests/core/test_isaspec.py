"""The declarative encoding-spec subsystem: model, validation, CLI.

Covers the spec format contract and validation invariants stated in
``repro/core/isaspec/__init__.py``: JSON round-trips losslessly,
``validate_spec`` catches each class of malformed spec (field overlap,
width coverage, opcode collisions, signed-range sanity, exhaustiveness,
unknown codecs), registered specs match their builder parameters, the
markdown report renders every field, and the ``python -m
repro.core.isaspec`` CLI gates on validation.
"""

import dataclasses
import json

import pytest

from repro.core.errors import ConfigurationError, SpecError
from repro.core.instructions import MNEMONICS, Instruction
from repro.core.isaspec import (
    EncodingSpec,
    FieldSpec,
    FormatSpec,
    REGISTERED_SPECS,
    build_encoding_spec,
    load_registered_spec,
    render_report,
    validate_spec,
)
from repro.core.isaspec.__main__ import main as isaspec_cli
from repro.core.isaspec.registry import built_spec, spec_path
from repro.core.parser import Parser


def family_spec(width: int = 32, **overrides) -> EncodingSpec:
    return build_encoding_spec("test-spec", width, **overrides)


def with_format(spec: EncodingSpec, fmt: FormatSpec) -> EncodingSpec:
    formats = tuple(f if f.name != fmt.name else fmt
                    for f in spec.formats)
    return dataclasses.replace(spec, formats=formats)


class TestModel:
    def test_json_roundtrip_is_lossless(self):
        spec = family_spec()
        assert EncodingSpec.from_json(spec.to_json()) == spec

    def test_registered_files_roundtrip(self):
        for name in REGISTERED_SPECS:
            spec = load_registered_spec(name)
            assert EncodingSpec.from_json(spec.to_json()) == spec

    def test_malformed_json_raises_spec_error(self):
        with pytest.raises(SpecError):
            EncodingSpec.from_json("not json {")
        with pytest.raises(SpecError):
            EncodingSpec.from_json("[1, 2]")
        with pytest.raises(SpecError):
            EncodingSpec.from_json(json.dumps({"name": "x"}))

    def test_bit_range_rendering(self):
        assert FieldSpec("Rd", "rd", 20, 5).bit_range() == "24..20"
        assert FieldSpec("flag", "f", 31, 1).bit_range() == "31"


class TestValidation:
    def test_family_specs_are_valid(self):
        for width in (32, 64, 128):
            assert validate_spec(family_spec(width)) == []

    def test_field_overlap_detected(self):
        # The surface-49 design point: a 6-bit FMR Qi field left at
        # offset 15 collides with Rd at bit 20.
        spec = with_format(
            family_spec(),
            FormatSpec("FMR", 9, (
                FieldSpec("Rd", "rd", 20, 5),
                FieldSpec("Qi", "qubit", 15, 6))))
        problems = validate_spec(spec)
        assert any("overlaps" in p and "Qi" in p for p in problems)
        # Moved to offset 14 (the registered fix) it validates.
        fixed = with_format(
            family_spec(),
            FormatSpec("FMR", 9, (
                FieldSpec("Rd", "rd", 20, 5),
                FieldSpec("Qi", "qubit", 14, 6))))
        assert validate_spec(fixed) == []

    def test_field_overlapping_opcode_detected(self):
        spec = with_format(
            family_spec(),
            FormatSpec("QWAIT", 18, (
                FieldSpec("imm", "cycles", 0, 28),)))
        assert any("overlaps opcode" in p for p in validate_spec(spec))

    def test_field_past_word_end_detected(self):
        spec = with_format(
            family_spec(),
            FormatSpec("QWAIT", 18, (
                FieldSpec("imm", "cycles", 30, 20),)))
        assert any("exceeds" in p for p in validate_spec(spec))

    def test_opcode_collision_detected(self):
        spec = with_format(family_spec(),
                           FormatSpec("STOP", 0))  # NOP's opcode
        assert any("collision" in p for p in validate_spec(spec))

    def test_opcode_overflow_detected(self):
        spec = with_format(family_spec(), FormatSpec("STOP", 64))
        assert any("does not fit" in p for p in validate_spec(spec))

    def test_missing_format_detected(self):
        spec = family_spec()
        spec = dataclasses.replace(
            spec, formats=tuple(f for f in spec.formats
                                if f.name != "QWAIT"))
        assert any("does not cover" in p and "QWAIT" in p
                   for p in validate_spec(spec))

    def test_unknown_format_detected(self):
        spec = family_spec()
        spec = dataclasses.replace(
            spec, formats=spec.formats + (FormatSpec("WIBBLE", 20),))
        assert any("no instruction-class binding" in p
                   for p in validate_spec(spec))

    def test_missing_required_attribute_detected(self):
        spec = with_format(
            family_spec(),
            FormatSpec("CMP", 2, (FieldSpec("Rs", "rs", 15, 5),)))
        assert any("required attribute rt" in p
                   for p in validate_spec(spec))

    def test_unknown_codec_detected(self):
        spec = with_format(
            family_spec(),
            FormatSpec("QWAIT", 18, (
                FieldSpec("imm", "cycles", 0, 20, "bcd"),)))
        assert any("unknown codec" in p for p in validate_spec(spec))

    def test_signed_field_needs_two_bits(self):
        spec = with_format(
            family_spec(),
            FormatSpec("LDI", 5, (
                FieldSpec("Rd", "rd", 20, 5),
                FieldSpec("imm", "imm", 0, 1, "int"))))
        assert any("at least 2 bits" in p for p in validate_spec(spec))

    def test_bad_width_rejected(self):
        with pytest.raises(SpecError, match="multiple of 8"):
            build_encoding_spec("bad", 33)
        with pytest.raises(SpecError, match="at least 32"):
            build_encoding_spec("bad", 24)


class TestRegistry:
    def test_all_registered_specs_load_and_match_builder(self):
        for name in REGISTERED_SPECS:
            assert load_registered_spec(name) == built_spec(name)

    def test_unknown_name_raises(self):
        with pytest.raises(SpecError, match="no registered"):
            load_registered_spec("fig9-128bit")

    def test_surface49_widths(self):
        spec = load_registered_spec("surface49-192bit")
        assert spec.instruction_width == 192
        smit = spec.format_named("SMIT")
        mask = next(f for f in smit.fields if f.attr == "pairs")
        assert mask.width == 160
        qi = next(f for f in spec.format_named("FMR").fields
                  if f.attr == "qubit")
        assert (qi.offset, qi.width) == (14, 6)


class TestInstantiationCrossValidation:
    def test_chip_qubits_must_fit_fmr_field(self):
        from repro.core.operations import default_operation_set
        from repro.core.isa import EQASMInstantiation
        from repro.topology.library import rotated_surface_chip

        # 192-bit words, but the spec keeps the default 5-bit Qi field
        # — qubit 48 is unaddressable.
        with pytest.raises(ConfigurationError, match="FMR Qi"):
            EQASMInstantiation(
                name="bad", topology=rotated_surface_chip(5),
                operations=default_operation_set(),
                encoding_spec=family_spec(
                    192, qubit_mask_field_width=49,
                    pair_mask_field_width=160))


class TestReport:
    def test_report_lists_every_format_and_field(self):
        spec = load_registered_spec("fig8-32bit")
        report = render_report(spec)
        for fmt in spec.formats:
            assert f"`{fmt.name}` (opcode {fmt.opcode})" in report
            for field in fmt.fields:
                assert field.name in report
        assert "## Bundle word" in report
        assert "| PI | 2..0 | 3 |" in report

    def test_fig8_positions_in_report(self):
        report = render_report(load_registered_spec("fig8-32bit"))
        assert "| slot 0 q opcode | 30..22 | 9 |" in report
        assert "| slot 1 target reg | 7..3 | 5 |" in report


class TestCli:
    def test_validate_all_ok(self, capsys, tmp_path):
        assert isaspec_cli(["validate", "--all",
                            "--report-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        for name in REGISTERED_SPECS:
            assert f"OK   {spec_path(name)}" in out
            assert (tmp_path / f"{name}.md").exists()

    def test_validate_rejects_broken_spec_file(self, capsys, tmp_path):
        spec = family_spec()
        broken = dataclasses.replace(
            spec, formats=spec.formats + (FormatSpec("STOP2", 1),))
        path = tmp_path / "broken.json"
        path.write_text(broken.to_json())
        assert isaspec_cli(["validate", str(path)]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_validate_accepts_good_spec_file(self, capsys, tmp_path):
        path = tmp_path / "good.json"
        path.write_text(family_spec(64).to_json())
        assert isaspec_cli(["validate", str(path)]) == 0

    def test_validate_all_fails_on_an_unencodable_mnemonic(
            self, capsys, monkeypatch):
        """A mnemonic the parser accepts but no registered spec can
        encode fails ``validate --all`` (CI's encoding-spec step): the
        parser and the exhaustiveness check read one table."""
        @dataclasses.dataclass(frozen=True)
        class Halt(Instruction):
            """An instruction no registered spec has a format for."""

        monkeypatch.setitem(MNEMONICS, "HALT", (Halt, {}))
        assert Parser().parse_line("HALT", 1).instruction == Halt()
        assert isaspec_cli(["validate", "--all"]) == 1
        out = capsys.readouterr().out
        for name in REGISTERED_SPECS:
            assert f"FAIL {spec_path(name)}" in out
        assert "does not cover instruction format HALT" in out

    def test_validate_without_input_errors(self, capsys):
        assert isaspec_cli(["validate"]) == 2
