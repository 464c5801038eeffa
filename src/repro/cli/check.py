"""``repro check``: the determinism lint, dead names, unset options and
module boundaries."""

import pathlib

from repro.cli import _text_arg

_directory_arg = _text_arg(
    lambda value: pathlib.Path(value).is_dir(), "an existing directory"
)


def cmd_check(args) -> int:
    """Static analysis: determinism lint, dead names, unset options and
    module boundaries."""
    from repro.check import check_contracts, render_findings, run_lint

    failed = False
    findings = []
    if not args.skip_lint:
        root = pathlib.Path(args.path) if args.path else None
        findings.extend(run_lint(root))
    if not args.skip_contracts:
        findings.extend(check_contracts())
    if findings:
        print(render_findings(findings))
        failed = args.strict or any(f.severity == "error" for f in findings)
    print(f"check: {len(findings)} finding(s)")
    return 1 if failed else 0


def add_parsers(sub) -> None:
    p = sub.add_parser(
        "check",
        help="determinism lint, dead names, unset options and module boundaries",
    )
    p.add_argument("--strict", action="store_true",
                   help="fail on any finding, warnings included (CI gate)")
    p.add_argument("--skip-lint", action="store_true")
    p.add_argument("--skip-contracts", action="store_true")
    p.add_argument("--path", type=_directory_arg, default=None, metavar="DIR",
                   help="lint this directory instead of src/repro")
    p.set_defaults(func=cmd_check)
