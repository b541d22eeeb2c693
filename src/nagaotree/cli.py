"""Batch front door: validate data, build trees, run suites, extend maps.

Commands: validate | tree | suite | extend | codist.
Exit codes: 0 pass, 1 probe failure, 2 invalid input, 3 truncation limit.
All randomness flows from the single --seed; fixed config gives
byte-identical reports.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from . import datum as D
from . import extension as E
from . import serialize as S
from . import suites as SU
from . import tree as T
from . import twincodist as TC
from .errors import NagaoError, NotIsomorphism, TruncationExceeded

EXIT_PASS = 0
EXIT_PROBE_FAILURE = 1
EXIT_INVALID_INPUT = 2
EXIT_TRUNCATION = 3


@dataclass
class RunConfig:
    datum: str = "D0"
    radius: int = 4
    level: int = 1
    suites: tuple = SU.SUITE_NAMES
    samples: int = 0
    seed: int = 0
    out: str = ""
    format: str = "json"
    phi: str = ""

    def __post_init__(self):
        if self.radius < 0:
            raise ValueError("radius must be nonnegative")
        if self.samples < 0:
            raise ValueError("samples must be nonnegative")
        if self.level < 1:
            raise ValueError("level must be at least 1")
        if not self.suites:
            raise ValueError("no suite selected")
        unknown = [s for s in self.suites if s not in SU.SUITE_NAMES]
        if unknown:
            raise ValueError(f"unknown suites {', '.join(unknown)}; "
                             f"choose from {', '.join(SU.SUITE_NAMES)}")


def load_datum(source: str) -> D.NagaoDatum:
    if source in D.BUILTIN_NAMES:
        return D.builtin(source)
    with open(source) as fh:
        obj = json.load(fh)
    return D.datum_from_json(obj, name=Path(source).stem)


def load_map(d: D.NagaoDatum, path: str) -> E.TreeMap:
    """The map of a JSON file {"pairs": [[vertex, vertex], ...]}, in which
    each source vertex appears once."""
    with open(path) as fh:
        obj = json.load(fh)
    pairs = {}
    for a, b in obj["pairs"]:
        va, vb = S.vertex_from_json(d, a), S.vertex_from_json(d, b)
        T.validate_address(d, va)
        T.validate_address(d, vb)
        if va in pairs:
            raise NotIsomorphism(f"source vertex {va} is listed twice")
        pairs[va] = vb
    return E.TreeMap(d, pairs)


@contextmanager
def _sink(cfg: RunConfig):
    """The `write` of --out, creating its directory, or of stdout."""
    if cfg.out:
        Path(cfg.out).parent.mkdir(parents=True, exist_ok=True)
        with open(cfg.out, "w") as fh:
            yield fh.write
    else:
        yield sys.stdout.write


def _report(cfg: RunConfig, command: str, ok: bool, **fields) -> int:
    """Stream the canonical JSON text of the report {"command", "ok",
    **fields} to the sink; return 0 when ok, else 1 (probe failure)."""
    with _sink(cfg) as write:
        S.write_canonical({"command": command, "ok": ok, **fields}, write)
    return EXIT_PASS if ok else EXIT_PROBE_FAILURE


# what a malformed datum or map file raises
INPUT_ERRORS = (NagaoError, ValueError, LookupError, TypeError,
                AttributeError, OSError)


def _fail(cfg: RunConfig, command: str, exc: Exception, code: int) -> int:
    """Emit the error report of a refused command and return its exit code."""
    _report(cfg, command, False, error=type(exc).__name__, detail=str(exc))
    return code


def cmd_validate(cfg: RunConfig, d: D.NagaoDatum) -> int:
    return _report(cfg, "validate", True, datum=d.name or cfg.datum, k=d.k,
                   q=[d.q(i) for i in range(0, 8)],
                   biregular=d.profile.biregular)


def cmd_tree(cfg: RunConfig, d: D.NagaoDatum) -> int:
    t = T.ball(d, T.base_vertex(), cfg.radius)
    if cfg.format == "dot":
        with _sink(cfg) as write:
            for line in S.tree_to_dot(t):
                write(line)
        return EXIT_PASS
    return _report(cfg, "tree", True, tree=t.to_json())


def cmd_suite(cfg: RunConfig, d: D.NagaoDatum) -> int:
    reports = SU.run_suites(d, cfg.radius, names=cfg.suites,
                            samples=cfg.samples, seed=cfg.seed,
                            level=cfg.level)
    return _report(cfg, "suite", all(r.passed for r in reports),
                   datum=d.name or cfg.datum, radius=cfg.radius,
                   seed=cfg.seed, reports=[r.to_json() for r in reports])


def cmd_extend(cfg: RunConfig, d: D.NagaoDatum, phi: E.TreeMap) -> int:
    ext, report = E.density_pipeline(d, phi, cfg.radius,
                                     n_samples=max(cfg.samples, 4),
                                     seed=cfg.seed, record_instances=True)
    return _report(cfg, "extend", report.passed, datum=d.name or cfg.datum,
                   radius=cfg.radius, seed=cfg.seed, report=report.to_json(),
                   extension=ext.to_json())


def cmd_codist(cfg: RunConfig, d: D.NagaoDatum) -> int:
    t = T.ball(d, T.base_vertex(), cfg.radius)
    table = TC.synthesize_codistance(t)
    rep = TC.verify_codist(table, t)
    return _report(cfg, "codist", rep.passed, datum=d.name or cfg.datum,
                   radius=cfg.radius, verification=rep.to_json(),
                   table=table.to_json())


def build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """One subparser per command, taking only the options it reads; an
    absent option keeps its RunConfig default.  Returns the parser and the
    subparsers by command name."""
    p = argparse.ArgumentParser(
        prog="nagaotree",
        description="truncated trees of directly split Nagao data")
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, help):
        sp = sub.add_parser(name, help=help, argument_default=argparse.SUPPRESS)
        sp.add_argument("--datum",
                        help="builtin name (D0..D3) or datum file path")
        sp.add_argument("--radius", type=int)
        sp.add_argument("--out")
        return sp

    def sampled(sp):
        sp.add_argument("--seed", type=int)
        sp.add_argument("--samples", type=int)

    command("validate", "validate a datum")
    sp = command("tree", "build and export a ball")
    sp.add_argument("--format", choices=("json", "dot"))
    sp = command("suite", "run invariant suites")
    sp.add_argument("--level", type=int,
                    help="top level of the transport and li checks, with a "
                         "floor of 2: level 1 runs exactly what level 2 runs")
    sampled(sp)
    sp.add_argument("--suites", help="comma-separated subset of "
                                     + ",".join(SU.SUITE_NAMES))
    sp = command("extend", "run the density pipeline on a map file")
    sampled(sp)
    sp.add_argument("--phi", required=True, help="JSON file of vertex pairs")
    command("codist", "synthesize and verify codistance")
    return p, sub.choices


def config_from_args(args) -> RunConfig:
    opts = vars(args).copy()
    del opts["command"]
    if "suites" in opts:
        opts["suites"] = tuple(s for s in opts["suites"].split(",") if s)
    return RunConfig(**opts)


def main(argv=None) -> int:
    parser, commands = build_parser()
    args, unknown = parser.parse_known_args(argv)
    if unknown:
        # the command's own usage line lists the options it does take
        commands[args.command].error(
            f"unrecognized arguments: {' '.join(unknown)}")
    try:
        cfg = config_from_args(args)
    except ValueError as exc:
        sys.stderr.write(f"invalid config: {exc}\n")
        return EXIT_INVALID_INPUT
    handler = {
        "validate": cmd_validate,
        "tree": cmd_tree,
        "suite": cmd_suite,
        "extend": cmd_extend,
        "codist": cmd_codist,
    }[args.command]
    try:
        d = load_datum(cfg.datum)
        inputs = (d, load_map(d, cfg.phi)) if cfg.phi else (d,)
    except INPUT_ERRORS as exc:
        return _fail(cfg, args.command, exc, EXIT_INVALID_INPUT)
    # a library refusal is a report, any other exception a bug
    try:
        return handler(cfg, *inputs)
    except TruncationExceeded as exc:
        return _fail(cfg, args.command, exc, EXIT_TRUNCATION)
    except NagaoError as exc:
        return _fail(cfg, args.command, exc, EXIT_INVALID_INPUT)


if __name__ == "__main__":
    sys.exit(main())
