"""Command-line front end.

Subcommands operate on a JSON instance file:

    {"config":    {"points": [["x", "y"], ...]},
     "transport": {"dims": [...], "m": [[matrix, ...], ...]},   (optional)
     "quiver":    {"dims": [...], "dPsi": n, "a": [...], "b": [...]},
     "zeta":      "dx/dy"}                                      (optional)

with rational entries as canonical "num/den" strings; any other key is
invalid input.  A given --zeta wins over the instance's "zeta", which wins
over the subcommand's default.  All reports are machine-readable JSON
(--pretty for indentation); errors surface as {"error": {"code",
"message"}} with a nonzero exit code.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import stat
import sys
from fractions import Fraction

from .errors import InfraredError, InvalidInput
from .geometry import (
    Config,
    Dir,
    anti_stokes_sequence,
    convex_hull,
    dominance_order,
    general_position,
    infinity_order,
)
from .paths import enumerate_zeta_convex_paths, height_data
from .perverse import Quiver, TransportData, mu
from .fourier import factorization_check, fourier_diagram
from .secondary import secondary_fan
from .wallcross import CrossingSpec, apply_crossings, transport_along_path


def _parse_zeta(text: str) -> Dir:
    dx, _, dy = text.partition("/")
    try:
        return Dir(Fraction(int(dx)), Fraction(int(dy)))
    except ValueError:
        raise InvalidInput(
            f"zeta expects 'dx/dy' with integer components, got {text!r}"
        ) from None


def _zeta(inst: "Instance", args, default: str | None = None) -> Dir | None:
    """The direction a subcommand reads: --zeta when it is given, else the
    instance's "zeta", else `default`.  A given --zeta is parsed even when
    the instance has its own, so a malformed one is invalid input."""
    if args.zeta is not None:
        return _parse_zeta(args.zeta)
    return inst.zeta or (default and _parse_zeta(default))


def _load(path: str, build):
    """build(document) for the JSON file at path.  An unreadable file,
    malformed JSON or a document of the wrong shape is invalid input."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InvalidInput(f"cannot read {path}: {exc.strerror}") from None
    except json.JSONDecodeError as exc:
        raise InvalidInput(f"{path} is not valid JSON: {exc}") from None
    try:
        return build(data)
    except KeyError as exc:
        raise InvalidInput(f"{path}: missing key {exc}") from None
    except (AttributeError, IndexError, TypeError, ValueError) as exc:
        raise InvalidInput(f"{path}: malformed instance data: {exc}") from None


def _write(path: str, text: str) -> None:
    """Write text to the file at path; an unwritable path is invalid input.

    An existing regular file is overwritten in place and then cut to the
    written length, not truncated on open: on ext4 mounted with `discard`,
    a truncating open frees and discards the old blocks, and the close
    flushes the rewritten file.  Rewriting a 6-KB file took a median of
    0.18-0.23 ms that way against 0.013-0.020 ms in place (2-core VM).  A
    device or FIFO, such as /dev/null, is written and not truncated."""
    try:
        with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w") as fh:
            fh.write(text)
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.truncate()
    except OSError as exc:
        raise InvalidInput(f"cannot write {path}: {exc.strerror}") from None


_INSTANCE_KEYS = ("config", "transport", "quiver", "zeta")


class Instance:
    def __init__(self, data: dict):
        if not isinstance(data, dict):
            raise InvalidInput("an instance file holds a JSON object")
        for key in data:
            if key not in _INSTANCE_KEYS:
                raise InvalidInput(
                    f"unknown instance key {key!r}; expected one of "
                    + ", ".join(_INSTANCE_KEYS)
                )
        self.config = Config.from_json(data["config"]) if "config" in data else None
        self.transport = (
            TransportData.from_json(data["transport"])
            if "transport" in data
            else None
        )
        self.quiver = Quiver.from_json(data["quiver"]) if "quiver" in data else None
        if self.transport is None and self.quiver is not None:
            self.transport = mu(self.quiver)
        self.zeta = _parse_zeta(data["zeta"]) if "zeta" in data else None
        if (
            self.config is not None
            and self.transport is not None
            and len(self.config) != self.transport.n
        ):
            raise InvalidInput("config size and transport dims disagree")

    @staticmethod
    def load(path: str) -> "Instance":
        return _load(path, Instance)


def _need(instance: Instance, *fields):
    for f in fields:
        if getattr(instance, f) is None:
            raise InvalidInput(f"instance file is missing '{f}'")


def cmd_matroid(inst: Instance, args) -> dict:
    _need(inst, "config")
    A = inst.config
    t = A.sign_table()
    zeta = _zeta(inst, args)
    rep = general_position(A, zeta)
    return {
        "n": len(A),
        "chirotope": {
            f"{i}/{j}/{k}": t[i][j][k]
            for i, j, k in itertools.combinations(range(len(A)), 3)
        },
        "lin_general": rep.lin_general,
        "strong_lin_general": rep.strong_lin_general,
        "incl_infinity": rep.incl_infinity,
        "hull": convex_hull(A),
    }


def cmd_antistokes(inst: Instance, args) -> dict:
    _need(inst, "config")
    zeta = _zeta(inst, args, "1/0")
    word = anti_stokes_sequence(inst.config, zeta, rotation=args.rotation)
    return {
        "initial_order": dominance_order(inst.config, zeta),
        "rotation": args.rotation,
        "word": word,
        "length": len(word),
    }


def cmd_paths(inst: Instance, args) -> dict | str:
    _need(inst, "config")
    zeta = _zeta(inst, args, "1/0")
    A = inst.config
    out = []
    if (args.source is None) != (args.target is None):
        raise InvalidInput("--source and --target must be given together")
    if args.source is not None:
        for flag, v in (("--source", args.source), ("--target", args.target)):
            if v not in range(len(A)):
                raise InvalidInput(f"{flag} {v} is not a point index 0..{len(A) - 1}")
        pairs = [(args.source, args.target)]
    else:
        vals = infinity_order(A, zeta)[0]
        pairs = [
            (i, j)
            for a, i in enumerate(vals)
            for j in vals[a + 1:]
        ]
    for i, j in pairs:
        paths = enumerate_zeta_convex_paths(A, i, j, zeta)
        for p in paths:
            hd = height_data(p)
            out.append(
                {
                    "from": i,
                    "to": j,
                    "vertices": list(p.vertices),
                    "l_set": list(hd.l_set),
                    "h_set": list(hd.h_set),
                    "height": hd.h,
                }
            )
    if args.format == "jsonl":
        return "\n".join(json.dumps(entry) for entry in out)
    return {"zeta": [str(zeta.dx), str(zeta.dy)], "paths": out}


def cmd_stokes(inst: Instance, args) -> dict:
    _need(inst, "config", "transport")
    zeta0 = _zeta(inst, args, "-1/0")
    rep = factorization_check(inst.transport, inst.config, zeta0)
    return {
        "order": list(rep.order),
        "Cplus": rep.c_plus.to_json(),
        "Cminus": rep.c_minus.to_json(),
        "Delta": rep.delta.to_json(),
        "T_glob": rep.lhs.to_json(),
        "factorization_ok": rep.ok,
    }


def cmd_fourier(inst: Instance, args) -> dict:
    _need(inst, "config", "transport")
    zeta = _zeta(inst, args, "1/0")
    diag = fourier_diagram(inst.transport, zeta, inst.config)
    mono = diag.monodromy()
    return {
        "order": list(diag.order),
        "dims": list(diag.dims),
        "aCheck": [x.to_json() for x in diag.a_check],
        "bCheck": diag.b_check.to_json(),
        "monodromy": mono.to_json(),
    }


def cmd_walk(inst: Instance, args) -> dict:
    _need(inst, "transport")
    if args.to is not None:
        _need(inst, "config")
        target = _load(args.to, lambda data: Config.from_json(data["config"]))
        new_m, log = transport_along_path(inst.transport, inst.config, target)
    elif args.events is not None:
        specs = _load(
            args.events,
            lambda data: [CrossingSpec.from_json(d) for d in data["events"]],
        )
        n = inst.transport.n
        for s in specs:
            if max(s.i, s.j, s.k) >= n:
                raise InvalidInput(f"crossing {s.to_json()} names a point index above {n - 1}")
        new_m = apply_crossings(inst.transport, specs)
        log = specs
    else:
        raise InvalidInput("walk needs --to CONFIG.json or --events EVENTS.json")
    return {
        "events": [s.to_json() for s in log],
        "transport": new_m.to_json(),
    }


def cmd_secondary(inst: Instance, args) -> dict:
    _need(inst, "config")
    A = inst.config
    fan = secondary_fan(A)
    reports = [
        {
            "subdivision": sub.to_json(),
            "triangulation": sub.is_triangulation(),
            "regular": wit is not None,
            "witness": [str(x) for x in wit.psi] if wit else None,
            "codim": rep.codim,
            "exc": rep.exc,
            "h2": rep.h2,
        }
        for sub, rep, wit in fan
    ]
    regular = [rep.codim for _, rep, wit in fan if wit is not None]
    return {
        "n": len(A),
        "triangulations": sum(1 for r in reports if r["triangulation"]),
        "subdivisions": len(fan),
        "regular": len(regular),
        "poset_height": max(regular) - min(regular) if regular else 0,
        "coarse": regular.count(1),
        "reports": reports,
    }


def cmd_check(inst_or_none, args) -> dict:
    from . import checksuite

    if args.n < 2:
        raise InvalidInput(f"--n must be at least 2, got {args.n}")
    if not 1 <= args.dim <= checksuite.MAX_DIM:
        raise InvalidInput(f"--dim must be 1..{checksuite.MAX_DIM}, got {args.dim}")
    return checksuite.run(seed=args.seed, n=args.n, dim=args.dim)


def cmd_plot(inst: Instance, args) -> dict:
    _need(inst, "config")
    from . import plotting

    zeta = _zeta(inst, args, "1/0")
    if args.format == "svg":
        if args.poset:
            raise InvalidInput("--poset needs --format csv or dot")
        text = plotting.config_svg(inst.config, zeta)
    elif args.zeta is not None:
        raise InvalidInput("--zeta needs --format svg")
    elif args.format == "csv":
        text = (
            plotting.poset_csv(inst.config)
            if args.poset
            else plotting.config_csv(inst.config)
        )
    else:  # dot: refinement poset
        text = plotting.poset_dot(inst.config)
    if args.out:
        _write(args.out, text)
        return {"written": args.out, "bytes": len(text)}
    return {"content": text}


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors (an unknown option, a bad
    choice, a missing argument) are invalid input, reported as JSON like
    every other error."""

    def error(self, message):
        raise InvalidInput(message)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.  Each subcommand offers
    only the options its handler reads, and --out and --pretty."""
    parser = _Parser(
        prog="infrared",
        description="exact workbench for planar perverse-sheaf combinatorics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, needs_instance=True, zeta=False):
        p = sub.add_parser(name)
        if needs_instance:
            p.add_argument("instance", nargs="?", help="instance JSON file")
        if zeta:
            p.add_argument("--zeta", help="direction dx/dy (integers)")
        p.add_argument("--out", help="output file")
        p.add_argument("--pretty", action="store_true")
        p.set_defaults(fn=fn)
        return p

    add("matroid", cmd_matroid, zeta=True)
    p = add("antistokes", cmd_antistokes, zeta=True)
    p.add_argument("--rotation", choices=("ccw", "cw"), default="ccw")
    p = add("paths", cmd_paths, zeta=True)
    p.add_argument("--source", type=int)
    p.add_argument("--target", type=int)
    p.add_argument("--format", choices=("json", "jsonl"), default="json")
    add("stokes", cmd_stokes, zeta=True)
    add("fourier", cmd_fourier, zeta=True)
    leg = add("walk", cmd_walk).add_mutually_exclusive_group()
    leg.add_argument("--to", help="target configuration JSON")
    leg.add_argument("--events", help="explicit crossing list JSON")
    add("secondary", cmd_secondary)
    p = add("check", cmd_check, needs_instance=False)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--dim", type=int, default=2)
    p = add("plot", cmd_plot, zeta=True)
    p.add_argument("--format", choices=("svg", "csv", "dot"), required=True)
    p.add_argument("--poset", action="store_true",
                   help="emit the refinement poset instead of the points")
    return parser


def _emit(text: str, code: int) -> int:
    """Print text and return code, or 1 when the reader has closed stdout."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # point stdout at devnull so that the flush at exit stays quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return code


def _join_zeta(argv) -> list[str]:
    """argv with `--zeta D` written `--zeta=D` when D starts with one `-`,
    so that argparse reads a negative direction such as -1/0 as the value
    and not as an option; one pass over argv."""
    out: list[str] = []
    for word in argv:
        if out and out[-1] == "--zeta" and word[:1] == "-" and word[:2] != "--":
            out[-1] = "--zeta=" + word
        else:
            out.append(word)
    return out


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(_join_zeta(sys.argv[1:] if argv is None else argv))
        inst = None
        if getattr(args, "instance", None):
            inst = Instance.load(args.instance)
        # a handler returns its output text, or a report to dump as JSON
        result = args.fn(inst, args)
        if isinstance(result, str):
            text = result
        else:
            text = json.dumps(result, indent=2 if args.pretty else None)
        if args.out and args.command != "plot":
            _write(args.out, text + "\n")
            return 0
    except InfraredError as exc:
        payload = {"error": {"code": exc.code, "message": str(exc)}}
        return _emit(json.dumps(payload), 2)
    return _emit(text, 0)


if __name__ == "__main__":
    sys.exit(main())
