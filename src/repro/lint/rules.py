"""The reprolint domain rules (R001–R007).

Each rule is a small class over the stdlib ``ast``: per-module checks yield
:class:`~repro.lint.diagnostics.Finding`s from :meth:`Rule.check`, and
project-wide rules (R002 spans ``engine/campaign.py`` and
``store/keys.py``) accumulate state across modules and report from
:meth:`Rule.finalize`.  Rules are scoped by the ``repro`` subpackage a file
belongs to — the simulator/engine packages carry the bit-identity
contract; ``repro.obs`` is the sanctioned home of the wall clock.

The rules encode the determinism invariants catalogued in
``docs/determinism.md``; fixture-based good/bad snippets for every rule
live in ``tests/test_lint.py``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple, Type

from repro.lint.diagnostics import Finding

#: Subpackages of ``repro`` whose execution must be bit-identical across
#: schedulers and processes (the simulator/engine code).
SIM_PACKAGES = frozenset({"engine", "iss", "leon3", "rtl"})

#: The one symbol through which wall-clock reads are allowed (R001).
WALLCLOCK_HELPER = "repro.obs.wallclock"

#: Registration marker for sanctioned module-level worker caches (R004).
WORKER_STATE_MARK = "reprolint: worker-state"

#: Wall-clock call origins R001 flags outside ``repro.obs``.
WALLCLOCK_ORIGINS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: Entropy-source call origins R001 flags everywhere outside ``repro.obs``.
ENTROPY_ORIGINS = frozenset(
    {
        "os.urandom",
        "uuid.uuid1",
        "uuid.uuid3",
        "uuid.uuid4",
        "uuid.uuid5",
        "uuid.getnode",
    }
)

#: ``random`` module calls that are *allowed*: seeded generator instances.
SEEDED_RANDOM = frozenset({"random.Random", "random.SystemRandom"})

#: Telemetry recorder methods that must be statements in keyed code (R006).
TELEMETRY_RECORDERS = frozenset(
    {"inc", "observe", "set_gauge", "emit_span", "emit_instant"}
)

#: Receiver names that mark a call as a telemetry recorder call (R006).
TELEMETRY_RECEIVERS = frozenset({"telemetry", "registry", "events", "event_log"})

#: Pool/executor methods whose callable argument crosses a process
#: boundary and must therefore be a module-level function (R003).
SUBMISSION_METHODS = frozenset(
    {"imap", "imap_unordered", "map", "map_async", "starmap", "apply_async", "submit"}
)

#: Methods whose derivation defines which ``CampaignConfig`` fields are
#: part of the store key (R002): the engine method that derives a campaign's
#: key and stored configuration row.
KEYED_METHODS = frozenset({"_identity"})

#: Name of the result-transparency registry R002 looks for (store/keys.py).
TRANSPARENT_REGISTRY = "RESULT_TRANSPARENT"

#: The artifact (de)serialization module R007 confines to the strict tree.
ARTIFACT_MODULE = "repro.store.artifacts"

#: ``repro`` subpackages under strict mypy (mirrors the ``[mypy]`` strict
#: file list in ``setup.cfg``/CI) — the only packages allowed to import
#: the artifact (de)serialization paths (R007).
STRICT_PACKAGES = frozenset({"engine", "store", "obs"})


@dataclass
class ModuleInfo:
    """One parsed source file plus the context rules need.

    ``dotted`` is the module path starting at the ``repro`` package (empty
    for files outside a ``repro`` tree, which scoped rules then skip);
    ``parents`` maps each AST node to its parent for statement-position
    checks; ``imports`` maps local aliases to the dotted origin they name.
    """

    path: Path
    relpath: str
    dotted: Tuple[str, ...]
    tree: ast.Module
    lines: List[str]
    parents: Dict[ast.AST, ast.AST] = field(default_factory=dict)
    imports: Dict[str, str] = field(default_factory=dict)

    @property
    def package(self) -> str:
        """The ``repro`` subpackage ("engine", "obs", ...; "" at top level)."""
        return self.dotted[1] if len(self.dotted) > 1 else ""

    def in_repro(self) -> bool:
        return bool(self.dotted) and self.dotted[0] == "repro"

    def line_has_mark(self, lineno: int, mark: str) -> bool:
        """True when *lineno* (or a comment line directly above) carries
        the registration comment *mark*."""
        if 1 <= lineno <= len(self.lines) and mark in self.lines[lineno - 1]:
            return True
        if lineno >= 2:
            above = self.lines[lineno - 2].strip()
            return above.startswith("#") and mark in above
        return False

    def origin(self, node: ast.AST) -> Optional[str]:
        """The dotted origin a name or attribute chain resolves to.

        ``time.perf_counter`` with ``import time`` resolves to
        ``"time.perf_counter"``; ``pc`` after ``from time import
        perf_counter as pc`` resolves the same way.  Anything rooted in a
        local (non-imported) name resolves to ``None``.
        """
        if isinstance(node, ast.Name):
            return self.imports.get(node.id)
        if isinstance(node, ast.Attribute):
            base = self.origin(node.value)
            if base is not None:
                return f"{base}.{node.attr}"
        return None


def build_module(path: Path, relpath: str, source: str) -> ModuleInfo:
    """Parse *source* into a :class:`ModuleInfo` (raises ``SyntaxError``)."""
    tree = ast.parse(source, filename=str(path))
    module = ModuleInfo(
        path=path,
        relpath=relpath,
        dotted=_dotted_path(relpath),
        tree=tree,
        lines=source.splitlines(),
    )
    for parent in ast.walk(tree):
        for child in ast.iter_child_nodes(parent):
            module.parents[child] = parent
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                module.imports[alias.asname or alias.name.split(".", 1)[0]] = (
                    alias.name if alias.asname else alias.name.split(".", 1)[0]
                )
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                if alias.name != "*":
                    module.imports[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}"
                    )
    return module


def _dotted_path(relpath: str) -> Tuple[str, ...]:
    parts = list(Path(relpath).parts)
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts.pop()
    if "repro" in parts:
        return tuple(parts[parts.index("repro") :])
    return ()


class Rule:
    """Base class: per-module :meth:`check`, project-wide :meth:`finalize`."""

    rule_id = "R000"
    title = "unnamed rule"

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        return iter(())

    def finalize(self) -> Iterator[Finding]:
        return iter(())

    def finding(
        self, module: ModuleInfo, node: ast.AST, message: str
    ) -> Finding:
        return Finding(
            file=module.relpath,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule=self.rule_id,
            message=message,
        )


def _is_set_expr(node: ast.AST) -> bool:
    """A set display, set comprehension, or ``set()``/``frozenset()`` call."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    )


class NondeterminismRule(Rule):
    """R001: no unregistered wall clock, ambient entropy, or hash-order
    dependence in result-producing code.

    Wall-clock and entropy reads are flagged in every ``repro`` package
    except ``repro.obs`` — the observability layer owns the clock and
    exposes exactly one sanctioned symbol, :func:`repro.obs.wallclock`.
    Hash-order sensitivity (iterating a set, whose order varies with
    ``PYTHONHASHSEED`` for str elements) is flagged in the
    simulator/engine packages, where iteration order can reach results.
    """

    rule_id = "R001"
    title = "nondeterminism"

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        if not module.in_repro() or module.package in ("obs", "lint"):
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                finding = self._check_call(module, node)
                if finding is not None:
                    yield finding
            for iterable, what in self._iterations(node):
                if module.package in SIM_PACKAGES and _is_set_expr(iterable):
                    yield self.finding(
                        module,
                        iterable,
                        f"hash-order-sensitive set iteration in {what}; "
                        f"sort the elements (sorted(...)) or keep an "
                        f"insertion-ordered dict/list instead",
                    )

    def _check_call(
        self, module: ModuleInfo, node: ast.Call
    ) -> Optional[Finding]:
        origin = module.origin(node.func)
        if origin is None:
            return None
        if origin in WALLCLOCK_ORIGINS:
            return self.finding(
                module,
                node,
                f"wall-clock read {origin}() outside repro.obs; route it "
                f"through {WALLCLOCK_HELPER}() so timestamps stay "
                f"result-transparent",
            )
        if origin in ENTROPY_ORIGINS or origin.startswith("secrets."):
            return self.finding(
                module,
                node,
                f"ambient entropy source {origin}(); campaigns must be "
                f"reproducible from their seed",
            )
        if origin.startswith("random.") and origin not in SEEDED_RANDOM:
            return self.finding(
                module,
                node,
                f"module-level {origin}() shares global RNG state across "
                f"call sites; use a seeded random.Random(seed) instance",
            )
        return None

    @staticmethod
    def _iterations(node: ast.AST) -> Iterator[Tuple[ast.AST, str]]:
        """(iterable expression, description) pairs rooted at *node*."""
        if isinstance(node, (ast.For, ast.AsyncFor)):
            yield node.iter, "a for loop"
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            for comp in node.generators:
                yield comp.iter, "a comprehension"
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("list", "tuple")
            and len(node.args) == 1
        ):
            yield node.args[0], f"{node.func.id}(...)"


class KeyTransparencyRule(Rule):
    """R002: every ``CampaignConfig`` field is either keyed or registered.

    The rule joins three sources across the linted tree: the
    ``CampaignConfig`` dataclass fields, the config attributes read by the
    key-derivation methods (:data:`KEYED_METHODS`), and the
    ``RESULT_TRANSPARENT`` registry in ``store/keys.py``.  A field in
    neither set is a latent cache-poisoning bug — the campaign key would
    silently ignore a value that may change results; a registry entry
    without a field is stale and also fails.
    """

    rule_id = "R002"
    title = "key transparency"

    def __init__(self) -> None:
        self._fields: Dict[str, Tuple[ModuleInfo, ast.AST]] = {}
        self._config_class: Optional[Tuple[ModuleInfo, ast.AST]] = None
        self._keyed: Set[str] = set()
        self._registry: Dict[str, Tuple[ModuleInfo, ast.AST]] = {}
        self._registry_seen = False

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        if not module.in_repro():
            return iter(())
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef) and node.name == "CampaignConfig":
                self._config_class = (module, node)
                for stmt in node.body:
                    if isinstance(stmt, ast.AnnAssign) and isinstance(
                        stmt.target, ast.Name
                    ):
                        self._fields[stmt.target.id] = (module, stmt)
            elif (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name in KEYED_METHODS
            ):
                self._keyed.update(self._config_reads(node))
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if (
                        isinstance(target, ast.Name)
                        and target.id == TRANSPARENT_REGISTRY
                    ):
                        self._registry_seen = True
                        for name in self._registry_names(node.value):
                            self._registry[name] = (module, node)
        return iter(())

    @staticmethod
    def _config_reads(func: ast.AST) -> Set[str]:
        """Attribute names read off ``config`` / ``*.config`` in *func*."""
        reads: Set[str] = set()
        for node in ast.walk(func):
            if isinstance(node, ast.Attribute):
                value = node.value
                if (isinstance(value, ast.Name) and value.id == "config") or (
                    isinstance(value, ast.Attribute) and value.attr == "config"
                ):
                    reads.add(node.attr)
        return reads

    @staticmethod
    def _registry_names(value: ast.AST) -> Iterator[str]:
        if isinstance(value, ast.Call) and value.args:
            # frozenset({...}) / frozenset([...])
            value = value.args[0]
        if isinstance(value, (ast.Set, ast.List, ast.Tuple)):
            for element in value.elts:
                if isinstance(element, ast.Constant) and isinstance(
                    element.value, str
                ):
                    yield element.value

    def finalize(self) -> Iterator[Finding]:
        if self._config_class is None:
            return
        module, class_node = self._config_class
        if not self._registry_seen:
            yield self.finding(
                module,
                class_node,
                f"CampaignConfig has no {TRANSPARENT_REGISTRY} registry to "
                f"check against (expected in repro/store/keys.py)",
            )
            return
        for name, (field_module, field_node) in sorted(self._fields.items()):
            keyed = name in self._keyed
            registered = name in self._registry
            if keyed and registered:
                yield self.finding(
                    field_module,
                    field_node,
                    f"CampaignConfig.{name} is both keyed and registered "
                    f"result-transparent; it must be exactly one",
                )
            elif not keyed and not registered:
                yield self.finding(
                    field_module,
                    field_node,
                    f"CampaignConfig.{name} is neither hashed into the "
                    f"store key nor registered in {TRANSPARENT_REGISTRY} "
                    f"(store/keys.py); decide its key status explicitly",
                )
        for name, (reg_module, reg_node) in sorted(self._registry.items()):
            if name not in self._fields:
                yield self.finding(
                    reg_module,
                    reg_node,
                    f"{TRANSPARENT_REGISTRY} entry {name!r} is not a "
                    f"CampaignConfig field; remove the stale entry",
                )


class PicklabilityRule(Rule):
    """R003: nothing unpicklable in job/plan fields or pool submissions.

    Job and plan dataclasses cross the process boundary; a lambda default
    or a nested function handed to a pool method dies in ``pickle`` at
    runtime, on whichever scheduler first fans out.
    """

    rule_id = "R003"
    title = "picklability"

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        if module.package != "engine":
            return
        local_defs = self._local_definitions(module.tree)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef) and self._is_dataclass(node):
                yield from self._check_dataclass(module, node)
            elif isinstance(node, ast.Call):
                yield from self._check_submission(module, node, local_defs)

    @staticmethod
    def _is_dataclass(node: ast.ClassDef) -> bool:
        for decorator in node.decorator_list:
            target = decorator.func if isinstance(decorator, ast.Call) else decorator
            name = target.attr if isinstance(target, ast.Attribute) else getattr(
                target, "id", None
            )
            if name == "dataclass":
                return True
        return False

    def _check_dataclass(
        self, module: ModuleInfo, node: ast.ClassDef
    ) -> Iterator[Finding]:
        for stmt in node.body:
            if not isinstance(stmt, ast.AnnAssign) or stmt.value is None:
                continue
            default = stmt.value
            if isinstance(default, ast.Call):
                for keyword in default.keywords:
                    if keyword.arg == "default" and isinstance(
                        keyword.value, ast.Lambda
                    ):
                        default = keyword.value
                        break
            if isinstance(default, ast.Lambda):
                field_name = (
                    stmt.target.id if isinstance(stmt.target, ast.Name) else "?"
                )
                yield self.finding(
                    module,
                    default,
                    f"{node.name}.{field_name} defaults to a lambda; "
                    f"dataclass instances carrying it cannot be pickled "
                    f"across the scheduler boundary",
                )

    @staticmethod
    def _local_definitions(tree: ast.Module) -> Set[str]:
        """Names of functions/classes defined *inside* a function scope."""
        local: Set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for inner in ast.walk(node):
                    if inner is node:
                        continue
                    if isinstance(
                        inner,
                        (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
                    ):
                        local.add(inner.name)
        return local

    def _check_submission(
        self, module: ModuleInfo, node: ast.Call, local_defs: Set[str]
    ) -> Iterator[Finding]:
        candidates: List[ast.AST] = []
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in SUBMISSION_METHODS
            and node.args
        ):
            candidates.append(node.args[0])
        for keyword in node.keywords:
            if keyword.arg == "initializer":
                candidates.append(keyword.value)
        origin = module.origin(node.func)
        if origin == "functools.partial" and node.args:
            candidates.append(node.args[0])
        for candidate in candidates:
            if isinstance(candidate, ast.Lambda):
                yield self.finding(
                    module,
                    candidate,
                    "lambda submitted across the process boundary is not "
                    "picklable; use a module-level function",
                )
            elif isinstance(candidate, ast.Name) and candidate.id in local_defs:
                yield self.finding(
                    module,
                    candidate,
                    f"locally defined callable {candidate.id!r} submitted "
                    f"across the process boundary is not picklable; hoist "
                    f"it to module level",
                )


class WorkerStateRule(Rule):
    """R004: module-level mutable containers in ``engine/`` are explicit.

    A module-level dict/list/set in the engine is per-process state.  That
    is exactly how per-worker caches are meant to work — but an
    *unintentional* one leaks results between jobs of one worker while
    other workers miss it, which shows up as scheduler-dependent output.
    Every such container must therefore carry the registration comment
    ``# reprolint: worker-state`` as a reviewed, deliberate cache.
    """

    rule_id = "R004"
    title = "worker state"

    #: Calls that build a mutable container.
    MUTABLE_CALLS = frozenset(
        {"dict", "list", "set", "bytearray", "defaultdict", "OrderedDict",
         "Counter", "deque"}
    )

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        if module.package != "engine":
            return
        for node in module.tree.body:
            targets: List[ast.AST] = []
            value: Optional[ast.AST] = None
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            if value is None or not self._is_mutable(value):
                continue
            for target in targets:
                if not isinstance(target, ast.Name):
                    continue
                name = target.id
                if name.startswith("__") and name.endswith("__"):
                    continue  # __all__ and friends: import-time constants
                if module.line_has_mark(node.lineno, WORKER_STATE_MARK):
                    continue
                yield self.finding(
                    module,
                    node,
                    f"module-level mutable container {name!r} is hidden "
                    f"per-process state; register it as a per-worker cache "
                    f"with '# {WORKER_STATE_MARK}' or move it into an "
                    f"instance",
                )

    @classmethod
    def _is_mutable(cls, value: ast.AST) -> bool:
        if isinstance(value, (ast.Dict, ast.List, ast.Set)):
            return True
        return (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id in cls.MUTABLE_CALLS
        )


class ExceptionHygieneRule(Rule):
    """R005: no bare or swallowed broad excepts in simulator/engine code.

    A swallowed ``except Exception`` in a simulator turns a real
    divergence into a silently wrong outcome record.  Broad handlers are
    allowed only when they re-raise (classifying or chaining); bare
    ``except:`` is never allowed (it also catches KeyboardInterrupt).
    """

    rule_id = "R005"
    title = "exception hygiene"

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        if module.package not in SIM_PACKAGES | {"isa"}:
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.finding(
                    module,
                    node,
                    "bare except catches KeyboardInterrupt/SystemExit too; "
                    "name the exceptions this code can actually handle",
                )
                continue
            broad = [
                name
                for name in self._handler_names(node.type)
                if name in ("Exception", "BaseException")
            ]
            if broad and not any(
                isinstance(inner, ast.Raise) for inner in ast.walk(node)
            ):
                yield self.finding(
                    module,
                    node,
                    f"broad 'except {broad[0]}' swallows simulator errors "
                    f"without re-raising; narrow it to the concrete failure "
                    f"modes or re-raise a classified error",
                )

    @staticmethod
    def _handler_names(node: ast.AST) -> Iterator[str]:
        elements = node.elts if isinstance(node, ast.Tuple) else [node]
        for element in elements:
            if isinstance(element, ast.Name):
                yield element.id
            elif isinstance(element, ast.Attribute):
                yield element.attr


class TelemetryPurityRule(Rule):
    """R006: telemetry recorder calls are statements, never data flow.

    Metrics are result-transparent by contract (``KEY_VERSION`` rationale
    in ``store/keys.py``): turning a recorder call into an expression —
    assigning it, branching on it, passing it on — is the one way that
    contract can break silently.  Recorders must be expression statements.
    """

    rule_id = "R006"
    title = "telemetry purity"

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        if module.package not in SIM_PACKAGES | {"store"}:
            return
        for node in ast.walk(module.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in TELEMETRY_RECORDERS
                and self._is_telemetry_receiver(node.func.value)
            ):
                continue
            if not isinstance(module.parents.get(node), ast.Expr):
                yield self.finding(
                    module,
                    node,
                    f"telemetry recorder .{node.func.attr}() used as an "
                    f"expression; recorders must be statements so metrics "
                    f"never feed result data flow",
                )

    @staticmethod
    def _is_telemetry_receiver(node: ast.AST) -> bool:
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        else:
            return False
        return name == "TELEMETRY" or name.lower() in TELEMETRY_RECEIVERS


class ArtifactBoundaryRule(Rule):
    """R007: artifact (de)serialization stays inside the strict-mypy tree.

    The golden-artifact cache round-trips live engine state — checkpoint
    payloads and traces — through a typed JSON encoding,
    and a type confusion on that path breaks the cached==fresh bit-identity
    gate silently (the digests would simply never match, or worse, match on
    subtly wrong state).  The (de)serialization module
    ``repro.store.artifacts`` is therefore confined to the packages mypy
    checks in strict mode (``engine``, ``store``, ``obs``): importing it
    anywhere else would put an untyped caller on the serialization path.
    """

    rule_id = "R007"
    title = "artifact boundary"

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        if not module.in_repro() or module.package in STRICT_PACKAGES:
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if self._names_artifacts(alias.name):
                        yield self._boundary_finding(module, node)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                if node.module is None:
                    continue
                if self._names_artifacts(node.module):
                    yield self._boundary_finding(module, node)
                elif node.module == "repro.store" and any(
                    alias.name == "artifacts" for alias in node.names
                ):
                    yield self._boundary_finding(module, node)

    @staticmethod
    def _names_artifacts(dotted: str) -> bool:
        return dotted == ARTIFACT_MODULE or dotted.startswith(
            ARTIFACT_MODULE + "."
        )

    def _boundary_finding(self, module: ModuleInfo, node: ast.AST) -> Finding:
        where = f"repro.{module.package}" if module.package else "repro"
        return self.finding(
            module,
            node,
            f"{where} imports {ARTIFACT_MODULE}; artifact (de)serialization "
            f"must stay inside the strict-mypy tree "
            f"({', '.join(sorted(STRICT_PACKAGES))})",
        )


#: Every rule, in report order.  The engine instantiates a fresh set per
#: run (R002 accumulates cross-module state on the instance).
ALL_RULES: Tuple[Type[Rule], ...] = (
    NondeterminismRule,
    KeyTransparencyRule,
    PicklabilityRule,
    WorkerStateRule,
    ExceptionHygieneRule,
    TelemetryPurityRule,
    ArtifactBoundaryRule,
)
