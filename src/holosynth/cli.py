"""Command-line surface: synthesize, verify, sample, catalog.

Exit codes are stable so shell pipelines can gate on them:

    0   success, all requested checks within bounds
    2   argument, file or format errors (including unknown gates), or a
        request too large to fit in memory
    3   a matrix that must be unitary is not
    4   a verification bound was exceeded, the oracle's convergence
        order left its second-order window, the oracle grid is too
        coarse to transport (its overlap chain is numerically singular),
        or a unitary eigendecomposition failed its reconstruction check
    5   the loop does not close (open-loop controller document)
"""

from __future__ import annotations

import argparse
import os
import signal
import stat
import sys
import tempfile
from contextlib import suppress

import numpy as np

from .catalog import GateCatalogEntry, catalog_get, catalog_names
from .document import (
    canonical_dumps,
    controller_document,
    decode_matrix,
    document_controller,
    encode_matrix,
    loads,
    oracle_document,
)
from .errors import (
    DimensionError,
    HolosynthError,
    NonUnitaryInput,
    OpenLoop,
    ParamShapeMismatch,
    TooFewSamples,
    UnknownGate,
)
from .extremal import evaluate_controller
from .linalg import VALIDATION_TOL
from .synth import SynthesisParams, _real, _whole, _winding, synthesize
from .verify import (
    DEFAULT_SCHEDULE, _check_frames, _closed_loop, _grid_batches, _grid_times, cross_validate,
)

HOLONOMY_BOUND = 1e-10
CLOSURE_BOUND = 1e-10
ORACLE_BOUND = 2e-3


def _listed(convert, what: str):
    """An argparse type for a comma-separated list of `what`, each read by
    `convert`; empty items are skipped."""
    def parse(text: str) -> tuple:
        try:
            return tuple(convert(x) for x in text.split(",") if x.strip() != "")
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated {what}, got {text!r}") from None
    return parse

_integers = _listed(int, "integers")


def _checked(convert, what: str, admits, rule: str):
    """An argparse type for one value read by `convert` (expecting `what`)
    and admitted by `admits` (stated as `rule`)."""
    def parse(value):
        try:
            number = convert(value)
        except (TypeError, ValueError):
            raise argparse.ArgumentTypeError(f"expected {what}, got {value!r}") from None
        if not admits(number):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {value!r}")
        return number
    return parse

_positive_float = _checked(float, "a number", lambda x: 0.0 < x < np.inf, "finite and > 0")
_seed = _checked(int, "an integer", lambda x: x >= 0, ">= 0")


# The flags that choose a gate and its controller: declared once for
# synthesize and sample, and refused by sample --doc, whose document fixes
# both.
_SOURCE_FLAGS = {
    "--gate": dict(metavar="NAME", help="catalog gate name"),
    "--matrix": dict(metavar="FILE",
                     help="JSON matrix file {rows, cols, data: [[re, im], ...]}"),
    "--phases": dict(type=_listed(float, "numbers"), metavar="CSV",
                     help="per-channel free phases (radians)"),
    "--windings": dict(type=_integers, metavar="CSV",
                       help="per-channel winding numbers (>= 1)"),
    "--paper-order": dict(action="store_true", default=None,
                          help="reorder channels into the gate's tabulated layout"),
    "--seed": dict(type=_seed, help="seed for random-<k> catalog gates (default 0)"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="holosynth",
        description="Synthesize and verify optimal holonomic gate controllers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--steps", type=_integers, metavar="N[,N...]",
                        help="oracle step schedule; sample takes one step count "
                             "(default 100)")
    common.add_argument("--tolerance", type=_positive_float,
                        help="override the validation tolerance")
    common.add_argument("--config", metavar="FILE",
                        help="JSON file of default flag values")
    common.add_argument("--out", metavar="FILE", help="write output here instead of stdout")
    source = argparse.ArgumentParser(add_help=False)
    for flag, spec in _SOURCE_FLAGS.items():
        source.add_argument(flag, **spec)

    syn = sub.add_parser("synthesize", parents=[source, common],
                         help="build a controller for a gate")
    syn.add_argument("--oracle", action="store_true",
                     help="also run the numeric transport oracle (slow); --steps needs it")
    syn.set_defaults(func=cmd_synthesize)

    ver = sub.add_parser("verify", parents=[common], help="oracle-check a controller document")
    ver.add_argument("--doc", required=True, metavar="FILE",
                     help="controller document to verify")
    ver.add_argument("--bound", type=_positive_float,
                     help="max allowed finest-grid oracle deviation")
    ver.set_defaults(func=cmd_verify)

    smp = sub.add_parser("sample", parents=[source, common],
                         help="emit the curve of a controller as CSV")
    smp.add_argument("--doc", metavar="FILE", help="sample an existing document")
    smp.set_defaults(func=cmd_sample)

    cat = sub.add_parser("catalog", help="inspect the named gate catalog")
    cat_sub = cat.add_subparsers(dest="catalog_command", required=True)
    lst = cat_sub.add_parser("list", help="list known gate names")
    lst.set_defaults(func=cmd_catalog_list)
    shw = cat_sub.add_parser("show", help="print one catalog entry")
    shw.add_argument("name")
    shw.add_argument("--seed", type=_seed, default=0)
    shw.set_defaults(func=cmd_catalog_show)

    return parser


def _read_json(path: str, flag: str):
    """The JSON value in the file `path`, given by `flag`; ValueError naming
    both if it is not UTF-8 JSON or nests deeper than the decoder recurses."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return loads(fh.read())
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"{flag} {path}: {exc}") from exc


def _json_list(convert, what: str):
    """A config converter for a JSON list of `what`, each read by `convert`."""
    def parse(value) -> tuple:
        if not isinstance(value, list):
            raise ValueError(f"expected a list of {what}, got {value!r}")
        return tuple(convert(x) for x in value)
    return parse


_CONFIG_KEYS = {
    "phases": _json_list(_real, "numbers"),
    "windings": _json_list(_winding, "whole numbers"),
    "steps": lambda v: tuple(_whole(x) for x in (v if isinstance(v, list) else [v])),
    "bound": lambda v: _positive_float(_real(v)),
    "seed": lambda v: _seed(_whole(v)),
    "tolerance": lambda v: _positive_float(_real(v)),
}


def _apply_config(args, **defaults) -> None:
    """Fill the flags left unset on the command line, first from the
    optional JSON config file, then from `defaults` and the validation
    tolerance. Explicit command-line flags always win."""
    config = {}
    if args.config:
        config = _read_json(args.config, "--config")
        if not isinstance(config, dict):
            raise ParamShapeMismatch(
                f"config file {args.config} must hold a JSON object of flag values")
        unknown = set(config) - set(_CONFIG_KEYS)
        if unknown:
            raise ParamShapeMismatch(f"unknown config keys: {', '.join(sorted(unknown))}")
    for key, convert in _CONFIG_KEYS.items():
        if key in config and hasattr(args, key) and getattr(args, key) is None:
            try:
                setattr(args, key, convert(config[key]))
            except (TypeError, ValueError, ParamShapeMismatch, argparse.ArgumentTypeError) as exc:
                raise ParamShapeMismatch(f"config key {key!r}: {exc}") from exc
    for key, value in {"tolerance": VALIDATION_TOL, **defaults}.items():
        if getattr(args, key) is None:
            setattr(args, key, value)


def _load_gate(args) -> tuple[np.ndarray, str | None, GateCatalogEntry | None]:
    if args.gate and args.matrix:
        raise UnknownGate("give either --gate or --matrix, not both")
    if args.gate:
        seed = args.seed if args.seed is not None else 0
        entry = catalog_get(args.gate, seed=seed)
        return entry.matrix, entry.name, entry
    if args.matrix:
        return decode_matrix(_read_json(args.matrix, "--matrix")), None, None
    raise UnknownGate("one of --gate or --matrix is required")


def _params(args, k: int) -> SynthesisParams:
    """The flags' phases and windings, each defaulting to k channels;
    `synthesize` checks their count against the gate."""
    phases = args.phases if args.phases is not None else (0.0,) * k
    windings = args.windings if args.windings is not None else (1,) * k
    return SynthesisParams(phases=phases, windings=windings)


def _run_synthesis(args):
    gate, gate_name, entry = _load_gate(args)
    params = _params(args, gate.shape[0])
    order = signs = None
    if args.paper_order and entry is not None:
        order = entry.paper_order
        signs = entry.paper_signs
    result = synthesize(gate, params, channel_order=order,
                        channel_signs=signs, tol=args.tolerance)
    return result, params, gate_name


def _below(name: str, value: float, bound: float) -> tuple[str, bool]:
    """The check that `value` is below `bound`, as `_verdict` reads it."""
    return f"{name} {value:.3e} >= bound {bound:.3e}", value < bound


def _oracle_checks(oracle, bound: float) -> list[tuple[str, bool]]:
    """The oracle's finest deviation below `bound`, and a convergence order
    that its report does not read as `anomalous`."""
    return [
        _below("oracle deviation", oracle.deviation, bound),
        (f"oracle order {oracle.convergence_order_estimate:.3f} is anomalous",
         not oracle.anomalous),
    ]


def _verdict(checks) -> int:
    """Exit code 4 if any (message, passed) check failed, naming every
    failed check on stderr; 0 otherwise."""
    failed = [message for message, passed in checks if not passed]
    if failed:
        print("verification failed: " + "; ".join(failed), file=sys.stderr)
        return 4
    return 0


def _emit(text, out: str | None) -> None:
    """Write `text`, a string or an iterable of strings, to stdout or to
    the file `out`. A regular file, or a path that does not exist yet, is
    written as a temporary file beside it and renamed into place once
    complete, so a failure part-way leaves `out` untouched; a file it
    replaces keeps its permission bits, and its owner and group where this
    process may give them (as root; otherwise they become this process's,
    as for any new file). Anything else, a symlink, a device or a FIFO, is
    written through."""
    parts = [text] if isinstance(text, str) else text
    if not out:
        sys.stdout.writelines(parts)
        return
    try:
        old = os.lstat(out)
        mode = old.st_mode
    except FileNotFoundError:
        old = None
        umask = os.umask(0)
        os.umask(umask)
        mode = stat.S_IFREG | (0o666 & ~umask)  # the mode open() gives a new file, not 0o600
    if not stat.S_ISREG(mode):
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(parts)
        return
    try:
        fd, partial = tempfile.mkstemp(prefix=os.path.basename(out) + ".", suffix=".partial",
                                       dir=os.path.dirname(out) or ".")
    except OSError as exc:
        raise type(exc)(exc.errno, exc.strerror, out) from None
    try:
        with open(fd, "w", encoding="utf-8", newline="") as fh:
            if old is not None:
                with suppress(PermissionError):  # before chmod: a chown may clear set-id bits
                    os.fchown(fh.fileno(), old.st_uid, old.st_gid)
            os.fchmod(fh.fileno(), stat.S_IMODE(mode))
            fh.writelines(parts)
        os.replace(partial, out)
    finally:
        if os.path.exists(partial):
            os.remove(partial)


def cmd_synthesize(args) -> int:
    if args.steps is not None and not args.oracle:
        raise ParamShapeMismatch("--steps sets the oracle schedule and needs --oracle")
    _apply_config(args, steps=DEFAULT_SCHEDULE)
    result, params, gate_name = _run_synthesis(args)
    report = evaluate_controller(result.controller, result.gate, tol=args.tolerance)
    oracle = None
    if args.oracle:
        oracle = cross_validate(result.controller, result.gate,
                                steps_schedule=args.steps, tol=args.tolerance)
    doc = controller_document(
        result, report, params,
        gate_name=gate_name,
        paper_order=bool(args.paper_order),
        oracle=oracle,
    )
    _emit(canonical_dumps(doc), args.out)
    checks = [
        _below("holonomy error", report.holonomy_error, HOLONOMY_BOUND),
        _below("closure defect", report.loop_defect, CLOSURE_BOUND),
    ]
    if oracle is not None:
        checks += _oracle_checks(oracle, ORACLE_BOUND)
    return _verdict(checks)


def cmd_verify(args) -> int:
    _apply_config(args, steps=DEFAULT_SCHEDULE, bound=ORACLE_BOUND)
    ctrl, gate = document_controller(_read_json(args.doc, "--doc"), args.tolerance)
    oracle = cross_validate(ctrl, gate, steps_schedule=args.steps, tol=args.tolerance)
    report = oracle_document(oracle)
    report.update(
        target_error=float(oracle.target_error),
        gamma_numeric=encode_matrix(oracle.gamma_numeric),
        gamma_analytic=encode_matrix(oracle.gamma_analytic),
    )
    _emit(canonical_dumps(report), args.out)
    return _verdict([
        _below("target error", oracle.target_error, HOLONOMY_BOUND),
        *_oracle_checks(oracle, args.bound),
    ])


def cmd_sample(args) -> int:
    if args.doc:
        given = [flag for flag in _SOURCE_FLAGS
                 if getattr(args, flag[2:].replace("-", "_")) is not None]
        if given:
            raise ParamShapeMismatch(
                f"{', '.join(given)} cannot be combined with --doc, which fixes the controller")
    _apply_config(args, steps=(100,))
    if args.doc:
        ctrl, _ = document_controller(_read_json(args.doc, "--doc"), args.tolerance)
    else:
        result, _, _ = _run_synthesis(args)
        ctrl = result.controller
    if len(args.steps) != 1:
        raise ParamShapeMismatch("sample takes a single integer step count")
    steps, = args.steps
    _closed_loop(ctrl, steps)
    n, k = ctrl.n, ctrl.k
    header = ["t"]
    for i in range(n):
        for j in range(k):
            header += [f"v_re_{i}_{j}", f"v_im_{i}_{j}"]
    for i in range(n):
        for j in range(n):
            header += [f"p_re_{i}_{j}", f"p_im_{i}_{j}"]
    bloch = k == 1 and n == 2
    if bloch:
        header += ["r1", "r2", "r3"]

    def blocks():
        yield ",".join(header) + "\n"
        start = 0
        for view in _grid_batches(ctrl, steps):
            frames = np.ascontiguousarray(view)  # the rows' einsum and reshapes need C order
            _check_frames(frames, args.tolerance)
            m, p = len(frames), np.einsum("mik,mjk->mij", frames, frames.conj())
            times, start = _grid_times(steps, start, start + m), start + m
            columns = [times[:, None], frames.reshape(m, -1).view(float),
                       p.reshape(m, -1).view(float)]
            if bloch:
                columns.append(np.stack([2.0 * p[:, 0, 1].real, -2.0 * p[:, 0, 1].imag,
                                         (p[:, 0, 0] - p[:, 1, 1]).real], axis=1))
            rows = np.concatenate(columns, axis=1).tolist()
            yield "\n".join(",".join(map(repr, row)) for row in rows) + "\n"

    _emit(blocks(), args.out)
    return 0


def cmd_catalog_list(args) -> int:
    for name in catalog_names():
        print(name)
    return 0


def cmd_catalog_show(args) -> int:
    entry = catalog_get(args.name, seed=args.seed)
    doc = {
        "name": entry.name,
        "dim": entry.dim,
        "matrix": encode_matrix(entry.matrix),
        "paper_order": list(entry.paper_order) if entry.paper_order else None,
        "paper_signs": list(entry.paper_signs) if entry.paper_signs else None,
    }
    sys.stdout.write(canonical_dumps(doc))
    return 0


# Exception -> exit code; the first row that matches wins, so every
# specific error sits above the HolosynthError catch-all.
_EXIT_CODES = (
    (NonUnitaryInput, 3),
    (OpenLoop, 5),
    ((UnknownGate, DimensionError, ParamShapeMismatch, TooFewSamples,
      OSError, ValueError, MemoryError), 2),
    (HolosynthError, 4),
)


def main(argv=None) -> int:
    """Run one command and return its exit code; unmapped exceptions propagate."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse: 0 after --help, 2 for a rejected argument
        return exc.code
    try:
        return args.func(args)
    except Exception as exc:
        for kinds, code in _EXIT_CODES:
            if isinstance(exc, kinds):
                print(f"error: {exc}", file=sys.stderr)
                return code
        raise


def entry() -> None:
    """The console command: `main`, with SIGTERM raised as SystemExit(143)
    so that a stopped run still removes its temporary output file."""
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())


if __name__ == "__main__":
    entry()
