"""Reachability census: which functions of ``src/repro`` do the entry points run?

Runs every *entry-point family* — the ways the code runs outside the
test suite — under a ``sys.setprofile`` hook and records every function
of the package that any of them enters:

- ``examples``: every script in ``examples/``;
- ``cli``: every ``repro`` subcommand, CI's chaos and observability
  smokes included;
- ``scripts``: the service and overload smokes and the wire floor;
- ``bench``: the four ``bench_e2e`` workloads, short runs;
- ``benchmarks``: ``pytest benchmarks``.

The hook rides in generated ``sitecustomize`` / ``usercustomize``
modules, so every Python process of a family is counted: subprocesses
(``repro serve`` under the service smoke) and forked children alike. The
forked children, the live planes' tiers (the hierarchy's aggregators,
the flat controller), leave through ``os._exit``, which skips
``atexit``, and the service smoke ends its
first ``repro serve`` with ``SIGKILL``. So nothing waits for exit: each
function is appended to the process's record the first time the process
enters it, and a fork hook starts the child's own record file.

The result is compared with ``CENSUS.md``. Every function no family runs
needs a row there whose verdict starts with ``kept:`` and gives the
reason (and the test that drives it); everything else was deleted.

    python scripts/census.py            # run, print what no family runs
    python scripts/census.py --write    # run, rewrite CENSUS.md (verdicts kept)
    python scripts/census.py --check    # run, exit 1 on an unlisted function

The Modules table also counts each module's *options*: the defaulted
parameters of its public functions and methods and the defaulted fields
of its public dataclasses, every value a caller may set or leave alone.

``--check`` also fails when a row names a function that no longer
exists. A row whose function some run executes stays (a fault path that
only a slow run takes), so the gate does not flake.
"""

from __future__ import annotations

import argparse
import ast
import os
import re
import site
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")
TABLE = os.path.join(REPO, "CENSUS.md")
PY = sys.executable

Key = Tuple[str, str]  # (module, qualname)

# ``{tmp}`` is a scratch directory of the run. Scales are small: the
# census asks *whether* a function runs, not how fast.
FAMILIES: Dict[str, List[List[str]]] = {
    "examples": [
        [PY, f"examples/{name}"]
        for name in sorted(os.listdir(os.path.join(REPO, "examples")))
        if name.endswith(".py")
    ],
    "cli": [
        [PY, "-m", "repro", "flat", "--nodes", "200", "--cycles", "3",
         "--trace-out", "{tmp}/flat.json"],
        [PY, "-m", "repro", "flat", "--nodes", "100", "--cycles", "2",
         "--repeats", "2", "--json"],
        [PY, "-m", "repro", "hier", "--nodes", "400", "--aggregators", "4",
         "--cycles", "3", "--trace-out", "{tmp}/hier.json", "--json"],
        [PY, "-m", "repro", "hier", "--nodes", "400", "--aggregators", "4",
         "--cycles", "3", "--offload", "--levels", "3"],
        [PY, "-m", "repro", "coordinated", "--nodes", "200",
         "--controllers", "2", "--cycles", "3", "--trace-out",
         "{tmp}/coord.json"],
        [PY, "-m", "repro", "reproduce", "all", "--cycles", "2"],
        [PY, "-m", "repro", "plan", "--nodes", "5000", "--target-ms", "50"],
        [PY, "-m", "repro", "plan", "--nodes", "5000", "--target-ms", "50",
         "--json"],
        [PY, "-m", "repro", "plan", "--nodes", "1000", "--target-ms", "50"],
        [PY, "-m", "repro", "live", "--stages", "8", "--aggregators", "2",
         "--cycles", "5", "--obs-out", "{tmp}/live-trace.json",
         "--metrics-port", "0", "--json"],
        [PY, "-m", "repro", "live", "--stages", "20", "--cycles", "5",
         "--collect-timeout", "1.0"],
        [PY, "-m", "repro", "live", "--stages", "8", "--aggregators", "0",
         "--cycles", "5", "--obs-out", "{tmp}/live-flat-trace.json", "--json"],
        [PY, "-m", "repro", "chaos", "--plane", "live", "--design", "hier",
         "--seed", "7", "--report-out", "{tmp}/chaos-hier.json"],
        [PY, "-m", "repro", "chaos", "--plane", "live", "--design", "flat",
         "--seed", "7", "--report-out", "{tmp}/chaos-flat.json"],
        [PY, "-m", "repro", "chaos", "--plane", "sim", "--design", "hier",
         "--seed", "5", "--report-out", "{tmp}/chaos-sim-hier.json"],
        [PY, "-m", "repro", "chaos", "--plane", "sim", "--design", "flat",
         "--seed", "5", "--json"],
        [PY, "-m", "repro", "chaos", "--plane", "sim", "--design", "flat",
         "--seed", "7", "--report-out", "{tmp}/chaos-sim-flat.json"],
        [PY, "-m", "repro", "chaos", "--plane", "live", "--schedule",
         "full-restart", "--seed", "7", "--stages", "9", "--aggregators",
         "3", "--cycles", "14", "--cycle-period", "0.05", "--store-dir",
         "{tmp}/restart-store", "--report-out", "{tmp}/chaos-restart.json"],
        [PY, "-m", "repro", "store", "inspect", "--dir",
         "{tmp}/restart-store"],
        [PY, "-m", "repro", "store", "inspect", "--dir",
         "{tmp}/restart-store", "--json"],
        [PY, "-m", "repro", "chaos", "--plane", "live", "--schedule",
         "overload", "--seed", "7", "--report-out",
         "{tmp}/chaos-overload.json"],
        [PY, "-m", "repro", "archive", "run", "--dir", "{tmp}/runs",
         "--name", "a", "--nodes", "100", "--cycles", "2"],
        [PY, "-m", "repro", "archive", "run", "--dir", "{tmp}/runs",
         "--name", "b", "--nodes", "200", "--aggregators", "2",
         "--cycles", "2"],
        [PY, "-m", "repro", "archive", "list", "--dir", "{tmp}/runs"],
        [PY, "-m", "repro", "archive", "show", "--dir", "{tmp}/runs",
         "--name", "a"],
        [PY, "-m", "repro", "report", "--scale", "50", "--cycles", "3",
         "--output", "{tmp}/report.md"],
        [PY, "-m", "repro", "calibrate"],
        [PY, "-m", "repro", "calibrate", "--json"],
    ],
    "scripts": [
        [PY, "scripts/service_smoke.py", "--store-dir", "{tmp}/service-store",
         "--report-out", "{tmp}/service-smoke.json"],
        [PY, "scripts/overload_smoke.py", "--store-dir",
         "{tmp}/overload-store", "--report-out", "{tmp}/overload-smoke.json"],
        [PY, "scripts/wire_floor.py", "--stages", "64", "--cycles", "8"],
    ],
    "bench": [
        [PY, "-m", "bench_e2e.run", "--workload", name, "--seed", "1",
         "--seconds", "3", "--trace", "0"]
        for name in ("flat-2500", "hier-2500x4", "serve-2500x4",
                     "sim-hier-10000x4")
    ],
    # Timing pauses a profiler (pytest-benchmark's ``PauseInstrumentation``);
    # disabled, each bench body runs once, profiled.
    "benchmarks": [[PY, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                    "--benchmark-disable", "benchmarks"]],
}

# Not an entry point, so not a default family: ``--families tests``
# shows which of the functions no family runs a test still drives.
TESTS = {"tests": [[PY, "-m", "pytest", "-q", "-p", "no:cacheprovider", "tests"]]}

# The hook, loaded by a generated ``sitecustomize`` (found on
# ``PYTHONPATH``) and ``usercustomize`` (found under ``PYTHONUSERBASE``,
# which survives a child started with its own ``PYTHONPATH``, as the
# service smoke starts ``repro serve``). ``CENSUS_OUT`` is the directory
# each process writes its record to; ``CENSUS_ROOT`` the source tree
# whose functions count.
_CUSTOMIZE = """\
import importlib.util as _u
_spec = _u.spec_from_file_location("_census_hook", {path!r})
_mod = _u.module_from_spec(_spec)
_spec.loader.exec_module(_mod)
_mod.install()
"""


def install() -> None:
    """Record every function this process (and each fork of it) enters."""
    out = os.environ.get("CENSUS_OUT")
    root = os.environ.get("CENSUS_ROOT")
    if not out or not root or hasattr(sys, "_census_installed"):
        return
    sys._census_installed = True
    import threading

    root = os.path.realpath(root) + os.sep
    seen: Set = set()
    ours: Dict[str, bool] = {}
    path = [os.path.join(out, f"{os.getpid()}.txt")]

    def record(code) -> None:
        mine = ours.get(code.co_filename)
        if mine is None:
            mine = ours[code.co_filename] = os.path.realpath(
                code.co_filename
            ).startswith(root)
        if mine:
            # Opened per record: a forked child may have put /dev/null
            # over every descriptor it inherited.
            fd = os.open(path[0], os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
            try:
                os.write(fd, f"{code.co_filename}\t{code.co_qualname}\n".encode())
            finally:
                os.close(fd)

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code not in seen:
                seen.add(code)
                record(code)

    def forked() -> None:
        # The child inherits what the parent already wrote down, so it
        # writes only what it enters first, to a file of its own.
        path[0] = os.path.join(out, f"{os.getpid()}.txt")

    os.register_at_fork(after_in_child=forked)
    threading.setprofile(profile)
    sys.setprofile(profile)


# -- the package's functions ----------------------------------------------------


def module_name(src: str, path: str) -> str:
    rel = os.path.relpath(path, src)[: -len(".py")].split(os.sep)
    if rel[-1] == "__init__":
        rel = rel[:-1]
    return ".".join(rel)


def modules(src: str, package: str):
    """Yield ``(module, ast tree)`` for every source file of ``package``."""
    for dirpath, dirnames, filenames in os.walk(os.path.join(src, package)):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                with open(path, encoding="utf-8") as fh:
                    yield module_name(src, path), ast.parse(fh.read(), path)


def functions(src: str, package: str) -> Dict[Key, int]:
    """Every module- and class-level function of ``package``, with its lines."""
    found: Dict[Key, int] = {}

    def visit(body, prefix: str, module: str) -> None:
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, f"{prefix}{node.name}.", module)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                key = (module, prefix + node.name)
                # A property's setter shares its getter's name.
                found[key] = found.get(key, 0) + node.end_lineno - first + 1

    for module, tree in modules(src, package):
        visit(tree.body, "", module)
    return found


def _public(name: str) -> bool:
    return not name.startswith("_") or name == "__init__"


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _field_option(node: ast.AnnAssign) -> bool:
    """A dataclass field a caller may set: it has a default, is not a
    ``ClassVar`` and is not ``field(init=False)``."""
    if node.value is None or "ClassVar" in ast.unparse(node.annotation):
        return False
    value = node.value
    if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field":
        return not any(
            k.arg == "init" and isinstance(k.value, ast.Constant) and k.value.value is False
            for k in value.keywords
        )
    return True


def options(src: str, package: str) -> Dict[str, int]:
    """Options per module: every defaulted parameter of a public function
    or method (``__init__`` included) and every defaulted field of a
    public dataclass. Public means no ``_`` name on the way down."""
    found: Dict[str, int] = {}

    def count(body) -> int:
        n = 0
        for node in body:
            if isinstance(node, ast.ClassDef) and _public(node.name):
                if _is_dataclass(node):
                    n += sum(
                        1 for f in node.body
                        if isinstance(f, ast.AnnAssign) and _field_option(f)
                    )
                n += count(node.body)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and _public(
                node.name
            ):
                args = node.args
                n += len(args.defaults) + sum(d is not None for d in args.kw_defaults)
        return n

    for module, tree in modules(src, package):
        found[module] = count(tree.body)
    return found


# -- running the families -------------------------------------------------------


def run_family(
    commands: Sequence[Sequence[str]],
    src: str,
    package: str,
    cwd: str = REPO,
    timeout_s: float = 900.0,
    log=None,
) -> Tuple[Set[Key], List[Tuple[str, int]]]:
    """Run ``commands`` under the hook; return what ran and each exit status."""
    executed: Set[Key] = set()
    statuses: List[Tuple[str, int]] = []
    with tempfile.TemporaryDirectory(prefix="census-") as tmp:
        hook = os.path.join(tmp, "hook")
        userbase = os.path.join(tmp, "userbase")
        usersite = os.path.join(
            userbase, "lib", "python%d.%d" % sys.version_info[:2], "site-packages"
        )
        out = os.path.join(tmp, "out")
        scratch = os.path.join(tmp, "scratch")
        for d in (hook, usersite, out, scratch):
            os.makedirs(d)
        code = _CUSTOMIZE.format(path=os.path.abspath(__file__))
        for path in (f"{hook}/sitecustomize.py", f"{usersite}/usercustomize.py"):
            with open(path, "w") as fh:
                fh.write(code)
        # Keep the real user site importable under the borrowed base.
        with open(os.path.join(usersite, "census-user-site.pth"), "w") as fh:
            fh.write(site.getusersitepackages() + "\n")
        env = dict(os.environ)
        env["PYTHONUSERBASE"] = userbase
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (hook, src, env.get("PYTHONPATH")) if p
        )
        env["CENSUS_OUT"] = out
        env["CENSUS_ROOT"] = os.path.join(src, package)
        for argv in commands:
            argv = [a.replace("{tmp}", scratch) for a in argv]
            label = " ".join(os.path.basename(a) if a == PY else a for a in argv)
            started = time.monotonic()
            try:
                status = subprocess.run(
                    argv, cwd=cwd, env=env, timeout=timeout_s,
                    stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                ).returncode
            except subprocess.TimeoutExpired:
                status = -1
            statuses.append((label, status))
            if log is not None:
                print(f"  [{status:>3}] {time.monotonic() - started:6.1f}s {label}",
                      file=log, flush=True)
        for name in os.listdir(out):
            with open(os.path.join(out, name), encoding="utf-8") as fh:
                for line in fh.read().splitlines():
                    filename, qualname = line.split("\t")
                    executed.add((module_name(src, os.path.realpath(filename)), qualname))
    return executed, statuses


def census(
    families: Mapping[str, Sequence[Sequence[str]]],
    src: str = SRC,
    package: str = "repro",
    cwd: str = REPO,
    log=None,
) -> Tuple[Dict[Key, int], Dict[str, Set[Key]], Dict[str, List[Tuple[str, int]]]]:
    """Run each family; return the functions, what each family ran, statuses."""
    runs: Dict[str, Set[Key]] = {}
    statuses: Dict[str, List[Tuple[str, int]]] = {}
    for family, commands in families.items():
        if log is not None:
            print(f"{family}:", file=log, flush=True)
        runs[family], statuses[family] = run_family(
            commands, src, package, cwd=cwd, log=log
        )
    return functions(src, package), runs, statuses


# -- the table ------------------------------------------------------------------

_ROW = re.compile(r"^\| `([\w.]+):([\w.<>]+)` \| (\d+) \| (.*) \|$")


def read_verdicts(path: str = TABLE) -> Dict[Key, str]:
    """The verdict of every function row of a census table."""
    verdicts: Dict[Key, str] = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                m = _ROW.match(line.rstrip("\n"))
                if m:
                    verdict = m.group(4).replace(" *(ran)*", "").strip()
                    verdicts[(m.group(1), m.group(2))] = verdict
    return verdicts


def never_executed(funcs: Mapping[Key, int], runs: Mapping[str, Set[Key]]) -> List[Key]:
    ran = set().union(*runs.values()) if runs else set()
    return sorted(k for k in funcs if k not in ran)


def render(
    funcs: Mapping[Key, int],
    runs: Mapping[str, Set[Key]],
    verdicts: Mapping[Key, str],
    opts: Mapping[str, int],
) -> str:
    """The census table: modules, then every function no family runs."""
    dead = set(never_executed(funcs, runs))
    kept = {k for k, v in verdicts.items() if k in funcs and v.startswith("kept:")}
    by_module: Dict[str, List[Key]] = defaultdict(list)
    for key in funcs:
        by_module[key[0]].append(key)
    out = [
        "# Census: what the entry points run",
        "",
        "Written by `python scripts/census.py --write`; CI runs "
        "`python scripts/census.py --check`. Families: "
        + ", ".join(f"`{f}`" for f in runs) + " (see the script's "
        "docstring). Every function no family runs is `kept:` below with "
        "its reason and the test that drives it; the rest were deleted "
        "(CHANGES.md lists them). A row marked *(ran)* was executed by "
        "this census run but not by every run: a fault path that only "
        "slow runs take.",
        "",
        "## Modules",
        "",
        f"{sum(opts.values())} options: defaulted parameters of public "
        "functions and methods (`__init__` included) and defaulted fields "
        "of public dataclasses.",
        "",
        "| module | functions | lines | run by | never executed | options |",
        "|---|---:|---:|---|---:|---:|",
    ]
    for module in sorted(set(by_module) | {m for m, n in opts.items() if n}):
        keys = by_module[module]
        fams = [f for f, ran in runs.items() if any(k in ran for k in keys)]
        n_dead = sum(1 for k in keys if k in dead)
        out.append(
            f"| `{module}` | {len(keys)} | {sum(funcs[k] for k in keys)} | "
            f"{', '.join(fams) or '—'} | {n_dead} | {opts.get(module, 0)} |"
        )
    out += [
        "",
        "## Functions no family runs",
        "",
        f"{len(dead)} functions, {sum(funcs[k] for k in dead)} lines.",
        "",
        "| function | lines | verdict |",
        "|---|---:|---|",
    ]
    for key in sorted(dead | kept):
        verdict = verdicts.get(key, "UNDECIDED")
        if key not in dead:
            verdict += " *(ran)*"
        out.append(f"| `{key[0]}:{key[1]}` | {funcs[key]} | {verdict} |")
    return "\n".join(out) + "\n"


def check(
    funcs: Mapping[Key, int],
    runs: Mapping[str, Set[Key]],
    verdicts: Mapping[Key, str],
) -> List[str]:
    """What fails the gate: unlisted dead functions and rows for gone ones."""
    problems = [
        f"never executed and not kept: {m}:{q}"
        for m, q in never_executed(funcs, runs)
        if not verdicts.get((m, q), "").startswith("kept:")
    ]
    problems += [
        f"listed but no longer defined: {m}:{q}"
        for (m, q) in sorted(verdicts)
        if (m, q) not in funcs
    ]
    return problems


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--write", action="store_true",
                      help="rewrite CENSUS.md, keeping its verdicts")
    mode.add_argument("--check", action="store_true",
                      help="exit 1 if a function no family runs is not kept")
    parser.add_argument("--families", default=",".join(FAMILIES),
                        help="comma-separated subset (default: all)")
    args = parser.parse_args(argv)
    known = {**FAMILIES, **TESTS}
    families = {f: known[f] for f in args.families.split(",")}
    funcs, runs, statuses = census(families, log=sys.stderr)
    for family, results in statuses.items():
        for label, status in results:
            if status != 0:
                print(f"warning: {family}: exit {status}: {label}", file=sys.stderr)
    verdicts = read_verdicts()
    if args.write:
        with open(TABLE, "w", encoding="utf-8") as fh:
            fh.write(render(funcs, runs, verdicts, options(SRC, "repro")))
    dead = never_executed(funcs, runs)
    print(f"{len(funcs)} functions, {len(dead)} never executed "
          f"({sum(funcs[k] for k in dead)} lines)")
    if args.check:
        problems = check(funcs, runs, verdicts)
        for line in problems:
            print(line)
        return 1 if problems else 0
    if not args.write:
        for m, q in dead:
            print(f"{m}:{q}\t{funcs[(m, q)]}\t{verdicts.get((m, q), 'UNDECIDED')}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
