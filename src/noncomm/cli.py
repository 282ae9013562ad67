"""Batch front door: run scenarios, run the invariant suite, emit results.

    noncomm run <scenario> [--config PATH] [--set k=v,...] [--seed U64]
                [--trials N] [--out PATH] [--format csv|json] [--snapshots]
    noncomm check [--suite NAME] [--tolerance-profile default|strict]
    noncomm list [--json]

`run` gathers the parameters, trial count and seed from the command line,
the config file and NONCOMM_SEED (used when --seed is absent), and hands
them as given to `run_scenario`, which alone judges them.  Exit codes for
`run`: 0 success, 2 unknown scenario, 3 config/schema error, 4 numerical
invariant violation during the run.  `check` exits 1 if any invariant fails.

Result files are deterministic: two runs with the same scenario, parameters,
and seed produce byte-identical files.  Timestamps live only in the manifest
written next to each result file, with the OpenBLAS kernel that computed
the result (`blas_core`).  JSON result files, manifests and `list --json`
go through one writer, `json_text`: exactly `json.dumps(doc, indent=2)`
plus a newline, written with json's C encoder.

`main` parses with one parser per process: `build_parser()` depends on
nothing an invocation passes, so a process that calls `main` many times
builds it once, and a one-shot process builds it once as before.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import ctypes
import datetime
import functools
import glob
import json
import math
import operator
import os
import sys
import tempfile

from . import __version__
from .algebra import ContextMismatchError
from .checks import SUITES, run_checks
from .scenarios import SCENARIOS, SEED, TRIALS, ParameterError, ScenarioResult, run_scenario
from .states import NumericalInvariantError

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_UNKNOWN_SCENARIO = 2
EXIT_CONFIG_ERROR = 3
EXIT_NUMERICAL_ERROR = 4

_NAMES = {"pi": math.pi, "e": math.e, "tau": math.tau, "true": True, "false": False,
          "nan": math.nan, "infinity": math.inf, "null": None}


def _digits() -> int:  # the interpreter's int-to-str digit limit, its default if unlimited
    return sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits


def _number(x):  # a float, or an int within the digit limit: not a bool, list or str
    if type(x) is float or type(x) is int and abs(x) < 10 ** _digits():
        return x
    raise ValueError("not a number")


_BINOPS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
           ast.Div: operator.truediv, ast.Pow: operator.pow}
_UNARYOPS = {ast.USub: operator.neg, ast.UAdd: operator.pos}


def _eval_arith(node):
    if isinstance(node, ast.Constant) and type(node.value) in (bool, int, float, str):
        return node.value
    if isinstance(node, ast.Name) and node.id.lower() in _NAMES:
        return _NAMES[node.id.lower()]
    if isinstance(node, ast.List):
        return [_eval_arith(item) for item in node.elts]
    if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
        x, y = _number(_eval_arith(node.left)), _number(_eval_arith(node.right))
        # a power that would pass the digit limit is refused before it is computed
        if isinstance(node.op, ast.Pow) and y > 0 and abs(x) > 1 \
                and y * math.log10(abs(x)) > _digits():
            raise ValueError("a power past the digit limit")
        return _number(_BINOPS[type(node.op)](x, y))
    if isinstance(node, ast.UnaryOp) and type(node.op) in _UNARYOPS:
        return _number(_UNARYOPS[type(node.op)](_number(_eval_arith(node.operand))))
    raise ValueError("not a constant")


def parse_value(text: str):
    """A --set value: arithmetic on numbers ("pi/4"), lists ("[1, [NaN, 0]]"),
    quoted strings and the `_NAMES` in any case; any other text, or arithmetic
    that fails or passes the digit limit, stays text.  Never raises."""
    text = text.strip()
    try:
        return _eval_arith(ast.parse(text, mode="eval").body)
    except (ValueError, SyntaxError, ArithmeticError, RecursionError, MemoryError):
        return text


def split_assignments(text: str) -> list:
    """Split "k1=v1,k2=[1,2]" on top-level commas only."""
    parts, cur, depth = [], [], 0
    for ch in text:
        if ch in "[{(":
            depth += 1
        elif ch in "]})":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return [p.strip() for p in parts if p.strip()]


def parse_set_options(chunks) -> dict:
    out = {}
    for chunk in chunks or ():
        for assignment in split_assignments(chunk):
            if "=" not in assignment:
                raise ParameterError(f"--set entries look like key=value, got {assignment!r}")
            key, _, raw = assignment.partition("=")
            out[key.strip()] = parse_value(raw)
    return out


def _format_number(x) -> str:
    # 17 significant digits: lossless round trip for doubles
    return format(float(x), ".17g")


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return _format_number(value)
    if isinstance(value, (list, tuple)):
        return json.dumps(value)
    return str(value)


def _csv_text(header, rows) -> str:
    import csv
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def result_csv(result: ScenarioResult) -> str:
    return _csv_text(["scenario", "statistic", "value"],
                     ([result.scenario, key, _csv_cell(value)]
                      for key, value in (*result.summary.items(), *result.series.items())))


def trials_csv(result: ScenarioResult) -> str:
    return _csv_text(["trial", "record"],
                     ([rec.get("trial"), json.dumps(rec)] for rec in result.trial_records or ()))


_CONTAINERS = (list, tuple, dict)


@functools.cache
def _level(depth: int):
    """What `indent=2` writes for a container at nesting `depth`: json's C
    encoder with its item separator, the newline and indent before the
    closing bracket, and the separator between items."""
    sep = ",\n" + "  " * (depth + 1)
    encoder = json.encoder.c_make_encoder(
        None, json.JSONEncoder().default, json.encoder.encode_basestring_ascii, None,
        ": ", sep, False, False, True)
    return encoder, "\n" + "  " * depth, sep


def _indented(obj, depth: int = 0, end: str = "") -> str:
    """`json.dumps(obj, indent=2) + end` for `obj` at nesting `depth`, with
    str keys.  A container of scalars is one call of the C encoder, whose
    outer brackets are re-wrapped with the newlines and indents `indent=2`
    puts there; any other container joins its children's text."""
    encoder, pad, sep = _level(depth)
    if isinstance(obj, dict):
        values, brackets = obj.values(), "{}"
    elif isinstance(obj, (list, tuple)):
        values, brackets = obj, "[]"
    else:
        return "".join(encoder(obj, 0)) + end
    if not obj:
        return brackets + end
    for v in values:
        if isinstance(v, _CONTAINERS):
            break
    else:
        body = "".join(encoder(obj, 0))
        return f"{body[0]}{pad}  {body[1:-1]}{pad}{body[-1]}{end}"
    items = [_indented(v, depth + 1) for v in values]
    if brackets == "{}":
        items = [f"{json.encoder.encode_basestring_ascii(k)}: {item}" for k, item in zip(obj, items)]
    return f"{brackets[0]}{pad}  {sep.join(items)}{pad}{brackets[1]}{end}"


def json_text(doc) -> str:
    """`json.dumps(doc, indent=2) + "\\n"`, byte for byte, at C-encoder speed:
    ASCII-escaped, NaN and infinities as `NaN`/`Infinity`, keys in order."""
    return _indented(doc, end="\n")


def result_json(result: ScenarioResult) -> str:
    return json_text(result.to_dict())


def _atomic_write(path: str, text: str):
    """Write through a fresh temp file in the target's directory, so runs
    sharing an output path never share a temp file."""
    fd, tmp = tempfile.mkstemp(prefix=os.path.basename(path) + ".",
                               dir=os.path.dirname(path) or ".")
    try:
        with open(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        # mkstemp creates the file 0600; give it the mode open() would
        mask = os.umask(0)
        os.umask(mask)
        os.chmod(tmp, 0o666 & ~mask)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


@functools.cache
def blas_core() -> str:
    """The kernel ("SkylakeX", "Haswell", ...) that numpy's bundled OpenBLAS
    picked for this CPU, as `scipy_openblas_get_corename64_` names it, or
    "unknown" without that library or symbol.  Result bytes hold one
    kernel's floating-point bits, so manifests record it."""
    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas64_*.so"))
    try:
        corename = ctypes.CDLL(libs[0]).scipy_openblas_get_corename64_
    except (IndexError, OSError, AttributeError):
        return "unknown"
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()


def _utc_now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")


def _load_config(path):
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ParameterError(f"cannot read config {path!r}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # past the digit limit, or nested too deep
        raise ParameterError(f"config {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ParameterError("config must be a JSON object")
    unknown = set(cfg) - {"seed", "trials", "parameters"}
    if unknown:
        raise ParameterError(f"unknown config keys {sorted(unknown)}; "
                             "expected seed, trials, parameters")
    if not isinstance(cfg.get("parameters", {}), dict):
        raise ParameterError("config 'parameters' must be an object")
    return cfg


def _cmd_run(args) -> int:
    name = args.scenario
    if name not in SCENARIOS:
        print(f"error: unknown scenario {name!r}; see `noncomm list`", file=sys.stderr)
        return EXIT_UNKNOWN_SCENARIO
    started = _utc_now()
    try:
        if args.out is not None and not os.path.isdir(os.path.dirname(args.out) or "."):
            raise ParameterError(f"--out {args.out!r} is not in an existing directory")
        if args.out is not None and os.path.isdir(args.out):
            raise ParameterError(f"--out {args.out!r} is a directory")
        config = _load_config(args.config)
        overrides = dict(config.get("parameters", {}))
        overrides.update(parse_set_options(args.set))
        seeds = (args.seed, config.get("seed"), os.environ.get("NONCOMM_SEED"))
        seed = next((s for s in seeds if s is not None), SEED.default)
        trials = args.trials if args.trials is not None else config.get("trials", TRIALS.default)
        result = run_scenario(name, overrides, trials, seed, args.snapshots)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except (NumericalInvariantError, ContextMismatchError) as exc:
        print(f"error: numerical invariant violation during run: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL_ERROR

    payload = result_json(result) if args.format == "json" else result_csv(result)

    if args.out is None:
        sys.stdout.write(payload)
        return EXIT_OK

    outputs = [args.out]
    _atomic_write(args.out, payload)
    if args.snapshots and args.format == "csv":
        trials_path = args.out + ".trials.csv"
        _atomic_write(trials_path, trials_csv(result))
        outputs.append(trials_path)
    manifest = {
        "tool": "noncomm",
        "version": __version__,
        "scenario": name,
        "parameters": result.parameters,
        "seed": result.seed,
        "trials": result.trials,
        "blas_core": blas_core(),
        "started": started,
        "finished": _utc_now(),
        "outputs": outputs,
    }
    _atomic_write(args.out + ".manifest.json", json_text(manifest))
    return EXIT_OK


def _cmd_check(args) -> int:
    try:
        results = run_checks(args.suite, args.tolerance_profile)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    for res in results:
        print(res.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} invariants passed "
          f"(profile={args.tolerance_profile})")
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def _cmd_list(args) -> int:
    if args.json:
        doc = {name: scen.schema() for name, scen in SCENARIOS.items()}
        sys.stdout.write(json_text(doc))
        return EXIT_OK
    for name, scen in SCENARIOS.items():
        print(f"{name}: {scen.description}")
        for p in scen.params:
            choice = f" (one of {', '.join(map(str, p.choices))})" if p.choices else ""
            print(f"    {p.name} [{p.kind}, default {p.schema()['default']!r}]"
                  f" - {p.description}{choice}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="noncomm",
        description="Commutative and noncommutative conditional-probability engine: "
                    "measurement scenarios and invariant checks.",
    )
    parser.add_argument("--version", action="version", version=f"noncomm {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario and emit its result")
    run_p.add_argument("scenario", help="scenario name (see `noncomm list`)")
    run_p.add_argument("--config", help="JSON config file with seed/trials/parameters")
    run_p.add_argument("--set", action="append", metavar="k=v,...",
                       help="parameter overrides; repeatable, comma-separable")
    run_p.add_argument("--seed", help=f"64-bit seed (default: $NONCOMM_SEED or {SEED.default})")
    run_p.add_argument("--trials", help=f"trial count (default {TRIALS.default})")
    run_p.add_argument("--out", help="output path (default: stdout, no manifest)")
    run_p.add_argument("--format", choices=("csv", "json"), default="csv")
    run_p.add_argument("--snapshots", action="store_true",
                       help="keep per-trial outcome records in the output")
    run_p.set_defaults(fn=_cmd_run)

    check_p = sub.add_parser("check", help="run the invariant/property suite")
    check_p.add_argument("--suite", default="all", choices=("all", *SUITES))
    check_p.add_argument("--tolerance-profile", default="default",
                         choices=("default", "strict"))
    check_p.set_defaults(fn=_cmd_check)

    list_p = sub.add_parser("list", help="list scenarios and their parameter schemas")
    list_p.add_argument("--json", action="store_true", help="machine-readable schema dump")
    list_p.set_defaults(fn=_cmd_list)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """This process's parser; parsing leaves it as it was."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
