"""Command-line front end.

Subcommands: ``analyze``, ``batch``, ``two-level``, ``fock-demo``.
Exit codes: 0 success, 2 parse/configuration error, 3 no antilinear symmetry,
4 exceptional point, 1 anything else. Floats print to 12 significant digits,
residuals in scientific notation. ``PTHAMIL_TOL`` overrides the default
tolerance; ``--tol`` overrides both.
"""

from __future__ import annotations

import sys

import numpy as np

from .entry import build_parser
from .errors import ParseError, PTHamilError
from .fockdemo import divergence_witness, expand_position_state
from .jsontext import dumps
from .matio import format_complex_cell
from .pipeline import (
    AnalysisConfig,
    EXIT_OK,
    AnalysisReport,
    emit_report,
    error_entry,
    resolve_tol,
    run_analyze,
    run_batch,
)
from .twolevel import TwoLevelModel, closed_forms, compare_with_pipeline


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _fmt_res(x: float) -> str:
    return f"{x:.3e}"


def _magnitudes(a: np.ndarray) -> tuple:
    """``"%.12g"`` (``f"{x:.12g}"``) of each distinct ``|x|`` in ``a``, and for
    each entry of ``a`` the index of its string."""
    mags, inverse = np.unique(np.abs(a.ravel()), return_inverse=True)
    strs = ("%.12g\n" * len(mags) % tuple(mags.tolist())).split("\n")[:-1]
    return strs, inverse.reshape(a.shape)


def _matrix_cells(d: dict) -> list:
    """Rows of the ``format_complex_cell`` cells of ``d["re"]`` and ``d["im"]``
    (arrays, or nested lists), each distinct magnitude formatted once. A cell
    is the signed real string where the imaginary part is zero, the signed
    imaginary string and ``i`` where only the real part is zero, and otherwise
    the real string, the sign of the imaginary part (``-`` for NaN) and its
    string with ``i``."""
    re = np.asarray(d["re"], dtype=float)
    im = np.asarray(d["im"], dtype=float)
    strs, index = _magnitudes(re)
    signed = np.array(strs + ["-" + s for s in strs], dtype=object)
    cells = signed[index + len(strs) * (np.signbit(re) & ~np.isnan(re))]
    strs, index = _magnitudes(im)
    imag = np.array([s + "i" for s in strs], dtype=object)[index]
    im_zero, re_zero = im == 0.0, re == 0.0
    alone = ~im_zero & re_zero
    cells[alone] = imag[alone]
    negative = alone & (im < 0.0)
    cells[negative] = "-" + cells[negative]
    both = ~im_zero & ~re_zero
    cells[both] += np.where(im[both] > 0.0, "+", "-").astype(object) + imag[both]
    return cells.tolist()


def _fmt_matrix(d: dict, indent: str = "  ") -> str:
    """Rows of :func:`_matrix_cells`, each cell right-aligned to 22 characters."""
    return "\n".join(indent + ("%22s  " * len(row) % tuple(row))[:-2]
                     for row in _matrix_cells(d))


def _print_section(title: str) -> None:
    print(f"\n== {title} ==")


def _render_text(report: AnalysisReport) -> None:
    _print_section("spectrum")
    spectrum = report.spectrum
    print(f"  kind: {spectrum['kind']}")
    if spectrum["pairs"]:
        print(f"  conjugate pairs (indices): {spectrum['pairs']}")
    if spectrum["real_indices"]:
        print(f"  real eigenvalue indices: {spectrum['real_indices']}")
    print(f"  eigenvector condition number: {_fmt_res(spectrum['condition'])}"
          f"  (exceptional beyond {_fmt_res(spectrum['exceptional_threshold'])})")
    _print_section("eigenvalues")
    for re, im in report.eigen["values"]:
        print(f"  {format_complex_cell(complex(re, im))}")
    _print_section("metric V")
    print(_fmt_matrix(report.v))
    print(f"  positive: {report.v['positive']}")
    _print_section("gram matrices")
    for name in ("dirac", "v", "p", "pt"):
        block = report.gram[name]
        if block is None:
            continue
        print(f"  {name}:")
        print(_fmt_matrix(block, indent="    "))
    for key in ("pt", "pv", "c"):
        section = getattr(report, key)
        _print_section(key)
        if "skipped" in section:
            print(f"  skipped: {section['skipped']}")
        for k, val in section.items():
            if k == "matrix":
                print(f"  {k}:")
                print(_fmt_matrix(val, indent="    "))
            elif k in ("eta", "phase_fix", "alphas"):  # [re, im] lists, one row of cells
                re, im = np.array(val, dtype=float).T
                print(f"  {k}: {', '.join(_matrix_cells({'re': [re], 'im': [im]})[0])}")
            elif k != "skipped":
                print(f"  {k}: {val}")
    _print_section("diagnostic")
    diag = report.diagnostic
    print(f"  {diag if isinstance(diag, str) else 'skipped: ' + diag['skipped']}")
    _print_section("flags")
    for name, flag in sorted(report.flags.items()):
        status, rule = ("pass", "<=") if flag["passed"] else ("FAIL", ">")
        print(f"  {name}: {status} (residual {_fmt_res(flag['residual'])}"
              f" {rule} {_fmt_res(flag['threshold'])})")


def _render_csv(report: AnalysisReport) -> None:
    print("section,key,value")
    print(f"spectrum,kind,{report.spectrum['kind']}")
    for i, (re, im) in enumerate(report.eigen["values"]):
        print(f"eigen,value_{i},{format_complex_cell(complex(re, im))}")
    for i, row in enumerate(_matrix_cells(report.v)):
        print(f"V,row_{i},\"{','.join(row)}\"")
    for name, flag in sorted(report.flags.items()):
        print(f"flags,{name},{'pass' if flag['passed'] else 'fail'}")


def _emit(report: AnalysisReport, output: str) -> None:
    if output == "json":
        print(emit_report(report))
    elif output == "csv":
        _render_csv(report)
    else:
        _render_text(report)


def _c_signs(text: str) -> tuple:
    signs = []
    for token in text.split(","):
        try:
            signs.append(int(token))
        except ValueError:
            raise ParseError(f"--c-signs: {token!r} is not an integer") from None
    return tuple(signs)


def _config_from_args(args) -> AnalysisConfig:
    return AnalysisConfig(
        source_path=args.file,
        model=args.model,
        alpha=args.alpha,
        beta=args.beta,
        nmax=args.nmax,
        p_spec=args.p_spec,
        t_spec=args.t_spec,
        tol=args.tol,
        c_signs=_c_signs(args.c_signs) if args.c_signs else None,
    )


def _cmd_analyze(args) -> int:
    report = run_analyze(_config_from_args(args))
    _emit(report, args.output)
    return EXIT_OK


def _cmd_batch(args) -> int:
    json_out = args.output == "json"
    entries = run_batch(args.paths, parallelism=args.parallelism,
                        base_cfg=AnalysisConfig(source_path="-", tol=args.tol)
                        if args.tol is not None else None,
                        reports=json_out)
    if json_out:
        # each report written from its arrays, as emit_report writes one
        print(dumps([dict(e, report=e["report"]._tree()) if "report" in e else e for e in entries]))
    else:
        for entry in entries:
            failed = ", ".join(entry.get("failed_flags", ()))
            status = (f"error: {entry['error']['message']}" if "error" in entry
                      else f"ok; flags failed: {failed}" if failed else "ok")
            print(f"{entry['path']}: {status}")
    return 1 if any("error" in e for e in entries) else EXIT_OK


def _cmd_two_level(args) -> int:
    model = TwoLevelModel(args.alpha, args.beta)
    cf = closed_forms(model)
    tol = resolve_tol(AnalysisConfig(model="two-level", alpha=args.alpha, beta=args.beta,
                                     tol=args.tol))
    residuals = compare_with_pipeline(model, tol=tol)
    payload = {
        "alpha": model.alpha,
        "beta": model.beta,
        "phase": model.phase(),
        "theta": cf.theta,
        "energies": [cf.energies[0], cf.energies[1]],
        "dirac_overlap": cf.dirac_overlap,
        "S": {"re": cf.s.real.tolist(), "im": cf.s.imag.tolist()},
        "V": {"re": cf.v.real.tolist(), "im": cf.v.imag.tolist()},
        "u_plus": [[z.real, z.imag] for z in cf.u_plus],
        "u_minus": [[z.real, z.imag] for z in cf.u_minus],
        "pipeline_residuals": residuals,
        "pipeline_max_residual": max(residuals.values()),
    }
    if args.output == "json":
        print(dumps(payload))
        return EXIT_OK
    print(f"two-level model: alpha={_fmt(model.alpha)} beta={_fmt(model.beta)}"
          f" ({model.phase()} phase)")
    print(f"  theta = {_fmt(cf.theta)}")
    print(f"  energies = {_fmt(cf.energies[0])}, {_fmt(cf.energies[1])}")
    print(f"  dirac overlap = {_fmt(cf.dirac_overlap)}")
    print("  V =")
    print(_fmt_matrix(payload["V"], indent="    "))
    print("  pipeline comparison residuals:")
    for name, value in sorted(residuals.items()):
        print(f"    {name}: {_fmt_res(value)}")
    print(f"  max residual: {_fmt_res(payload['pipeline_max_residual'])}")
    return EXIT_OK


def _cmd_fock_demo(args) -> int:
    expansion = expand_position_state(args.x, 1.0, args.nmax)
    witness = divergence_witness(args.x, args.nmax) if args.nmax >= 50 else None
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write("n,c,c_squared,partial_norm\n")
            for n, (c, s) in enumerate(zip(expansion.coeffs, expansion.partial_norms)):
                fh.write(f"{n},{float(c)!r},{float(c * c)!r},{float(s)!r}\n")
    payload = {
        "x": args.x,
        "nmax": args.nmax,
        "partial_norm_final": float(expansion.partial_norms[-1]),
        "fitted_tail_exponent": witness.fitted_tail_exponent if witness else None,
    }
    if args.output == "json":
        print(dumps(payload))
        return EXIT_OK
    print(f"position eigenstate at x = {_fmt(args.x)}, truncated at n = {args.nmax}")
    head = min(8, args.nmax)
    print("  first coefficients: " + ", ".join(_fmt(c) for c in expansion.coeffs[: head + 1]))
    print(f"  partial Dirac norm at n={args.nmax}: {_fmt(expansion.partial_norms[-1])}")
    if witness is not None:
        print(f"  fitted tail exponent of c_n^2: {_fmt(witness.fitted_tail_exponent)}"
              " (above -1 certifies the comparison series diverges;"
              " a finite stand-in for the limit statement)")
    if args.csv:
        print(f"  coefficient table written to {args.csv}")
    return EXIT_OK


_COMMANDS = {
    "analyze": _cmd_analyze,
    "batch": _cmd_batch,
    "two-level": _cmd_two_level,
    "fock-demo": _cmd_fock_demo,
}


def main(argv=None) -> int:
    return run(build_parser().parse_args(argv))


def run(args) -> int:
    """Run the command of parsed arguments; returns the exit code."""
    try:
        return _COMMANDS[args.command](args)
    except (PTHamilError, ValueError) as exc:
        entry = error_entry(exc)
        output = getattr(args, "output", "text")
        if output == "json":
            print(dumps({"error": entry}))
        else:
            print(f"error: {entry['message']}", file=sys.stderr)
            if "note" in entry:
                print(f"note: {entry['note']}", file=sys.stderr)
        return entry["exit_code"]


if __name__ == "__main__":
    raise SystemExit(main())
