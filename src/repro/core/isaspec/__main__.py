"""CLI for encoding specs: validate spec files, render reports.

Usage::

    python -m repro.core.isaspec validate <spec.json> [...]
    python -m repro.core.isaspec validate --all [--report-dir DIR]
    python -m repro.core.isaspec regenerate

``validate --all`` checks every registered spec: the file loads, passes
:func:`~repro.core.isaspec.validate_spec` — whose exhaustiveness check
reads the instruction table the parser reads, so a mnemonic the parser
accepts but a spec cannot encode fails here — and matches what the
builder produces from the registered parameters (so builder and
checked-in file cannot drift silently).  With ``--report-dir`` it also renders one
markdown encoding report per spec — the CI tier-1 job publishes these
as artifacts.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.core.errors import SpecError
from repro.core.isaspec.model import EncodingSpec
from repro.core.isaspec.registry import (
    REGISTERED_SPECS,
    built_spec,
    load_registered_spec,
    regenerate,
    spec_path,
)
from repro.core.isaspec.report import render_report
from repro.core.isaspec.validate import validate_spec


def _emit_report(spec: EncodingSpec, report_dir: Path) -> Path:
    report_dir.mkdir(parents=True, exist_ok=True)
    path = report_dir / f"{spec.name}.md"
    path.write_text(render_report(spec))
    return path


def _validate_one(spec: EncodingSpec, source: str,
                  report_dir: Path | None) -> bool:
    problems = validate_spec(spec)
    if problems:
        print(f"FAIL {source}: {len(problems)} problem(s)")
        for problem in problems:
            print(f"  - {problem}")
        return False
    suffix = ""
    if report_dir is not None:
        suffix = f" -> {_emit_report(spec, report_dir)}"
    print(f"OK   {source}: {len(spec.formats)} formats, "
          f"{spec.instruction_width}-bit words{suffix}")
    return True


def _cmd_validate(args: argparse.Namespace) -> int:
    ok = True
    if args.all:
        for name in REGISTERED_SPECS:
            source = str(spec_path(name))
            try:
                spec = load_registered_spec(name)
            except SpecError as exc:
                print(f"FAIL {source}: {exc}")
                ok = False
                continue
            if spec != built_spec(name):
                print(f"FAIL {source}: file drifted from the builder "
                      f"output; run `python -m repro.core.isaspec "
                      f"regenerate`")
                ok = False
                continue
            ok &= _validate_one(spec, source, args.report_dir)
    for path in args.specs:
        try:
            spec = EncodingSpec.from_json(Path(path).read_text())
        except (OSError, SpecError) as exc:
            print(f"FAIL {path}: {exc}")
            ok = False
            continue
        ok &= _validate_one(spec, str(path), args.report_dir)
    if not args.all and not args.specs:
        print("nothing to validate: pass spec files or --all",
              file=sys.stderr)
        return 2
    return 0 if ok else 1


def _cmd_regenerate(args: argparse.Namespace) -> int:
    for path in regenerate():
        print(f"wrote {path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.core.isaspec",
        description="Validate declarative eQASM encoding specs.")
    sub = parser.add_subparsers(dest="command", required=True)

    validate = sub.add_parser(
        "validate", help="validate spec files and render reports")
    validate.add_argument("specs", nargs="*", metavar="spec.json",
                          help="spec files to validate")
    validate.add_argument("--all", action="store_true",
                          help="validate every registered spec")
    validate.add_argument("--report-dir", type=Path, default=None,
                          help="render a markdown encoding report per "
                               "valid spec into this directory")
    validate.set_defaults(func=_cmd_validate)

    regen = sub.add_parser(
        "regenerate", help="rewrite registered spec files from the "
                           "builder parameters")
    regen.set_defaults(func=_cmd_regenerate)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
