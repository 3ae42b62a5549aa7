"""persistence-schema-sync — format v2 can't silently drop a layer.

Origin: persistence format v2 (PR 2) embeds the annotation artifact's
lexical layers so a loaded advisor performs zero tokenizer calls.  The
round-trip is spread over two modules — the layer tuples and dataclass
fields in ``repro.pipeline.annotations``, the JSON keys in
``repro.core.persistence`` — and nothing kept them aligned: adding a
layer to ``LEXICAL_LAYERS`` without teaching ``from_lexical`` about it,
or serializing a new advisor field without reading it back, would
silently drop data on every save/load cycle.

Checks (all static, cross-module):

* every name in ``LAYERS`` is a field of the ``SentenceAnnotations``
  dataclass, and ``LEXICAL_LAYERS`` ⊆ ``LAYERS``;
* ``SentenceAnnotations.from_lexical`` mentions every lexical layer by
  literal, so shipped payloads rebuild completely;
* every string key the persistence module writes (dict literals,
  subscript stores) is also read somewhere in it (``.get(...)`` or
  subscript loads) — a written-but-never-read key is a field the load
  path silently discards;
* every manifest key the snapshot store's ``save()`` writes
  (``repro.core.snapshots``: manifest format 3, whose sidecar entry
  repeats the per-array checksum table) is read somewhere in the
  module — a manifest field the load/verify path never consults is
  dead weight at best and a checksum hole at worst;
* every array name the binary index header schema declares
  (``repro.core.binindex``: ``SEGMENT_ARRAYS`` + ``GLOBAL_ARRAYS``,
  the v4 sidecar's array-name table) is both written by
  ``pack_index()`` and read by ``restore_recommender()`` — a declared
  array the pack side never emits fails every load's name-set
  validation, and one the restore side never consumes is bytes that
  round-trip to nowhere;
* every key the trained pre-filter artifact's writer emits
  (``repro.stage1.model``: ``AdvicePrefilter.to_dict``) is read back by
  ``from_dict`` — a written-but-never-read model field silently
  degrades the filter on every save/load cycle, and because the
  payload is checksummed, a reader that recomputes the checksum over
  different keys than the writer bricks every artifact.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable

from repro.devtools.lint.engine import (
    FileContext,
    Project,
    Rule,
    Violation,
    register,
)
from repro.devtools.lint.rules import string_constant

ANNOTATIONS_MODULE = "repro.pipeline.annotations"
PERSISTENCE_MODULE = "repro.core.persistence"
SNAPSHOTS_MODULE = "repro.core.snapshots"
BININDEX_MODULE = "repro.core.binindex"
STAGE1_MODULE = "repro.stage1.model"


def _tuple_literal(ctx: FileContext, name: str) -> list[str] | None:
    for node in ctx.tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name
                for t in node.targets):
            if isinstance(node.value, (ast.Tuple, ast.List)):
                values = [string_constant(e) for e in node.value.elts]
                if all(v is not None for v in values):
                    return values  # type: ignore[return-value]
    return None


def _class_def(ctx: FileContext, name: str) -> ast.ClassDef | None:
    for node in ctx.tree.body:
        if isinstance(node, ast.ClassDef) and node.name == name:
            return node
    return None


def _function_def(ctx: FileContext, name: str) -> ast.FunctionDef | None:
    for node in ctx.tree.body:
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return node
    return None


def _dataclass_fields(class_def: ast.ClassDef) -> set[str]:
    return {item.target.id for item in class_def.body
            if isinstance(item, ast.AnnAssign)
            and isinstance(item.target, ast.Name)}


def _string_literals(node: ast.AST) -> set[str]:
    return {value for sub in ast.walk(node)
            if (value := string_constant(sub)) is not None}


@register
class PersistenceSchemaSyncRule(Rule):
    id = "persistence-schema-sync"
    severity = "error"
    description = ("annotation layers and persistence JSON keys must "
                   "round-trip: no layer or field is written without "
                   "being read back")

    def check_project(self, project: Project) -> Iterable[Violation]:
        annotations = project.module(ANNOTATIONS_MODULE)
        if annotations is not None:
            yield from self._check_annotations(annotations)
        persistence = project.module(PERSISTENCE_MODULE)
        if persistence is not None:
            yield from self._check_persistence(persistence)
        snapshots = project.module(SNAPSHOTS_MODULE)
        if snapshots is not None:
            yield from self._check_snapshots(snapshots)
        binindex = project.module(BININDEX_MODULE)
        if binindex is not None:
            yield from self._check_binindex(binindex)
        stage1 = project.module(STAGE1_MODULE)
        if stage1 is not None:
            yield from self._check_stage1_model(stage1)

    def _check_annotations(self, ctx: FileContext) -> Iterable[Violation]:
        layers = _tuple_literal(ctx, "LAYERS")
        lexical = _tuple_literal(ctx, "LEXICAL_LAYERS")
        class_def = _class_def(ctx, "SentenceAnnotations")
        if class_def is None:
            return
        fields = _dataclass_fields(class_def)
        for layer in layers or ():
            if layer not in fields:
                yield self.violation(
                    ctx, class_def,
                    f"LAYERS names {layer!r} but SentenceAnnotations has "
                    f"no such field; the layer can never be stored")
        for layer in lexical or ():
            if layers is not None and layer not in layers:
                yield self.violation(
                    ctx, class_def,
                    f"LEXICAL_LAYERS names {layer!r} which is not in "
                    f"LAYERS; the layer serializes but never computes")
        from_lexical = next(
            (item for item in class_def.body
             if isinstance(item, ast.FunctionDef)
             and item.name == "from_lexical"), None)
        if from_lexical is not None:
            mentioned = _string_literals(from_lexical)
            for layer in lexical or ():
                if layer not in mentioned:
                    yield self.violation(
                        ctx, from_lexical,
                        f"from_lexical() never reads lexical layer "
                        f"{layer!r}; worker payloads and saved advisors "
                        f"drop it on load")

    def _check_persistence(self, ctx: FileContext) -> Iterable[Violation]:
        written: dict[str, ast.AST] = {}
        read: set[str] = set()
        for node in ctx.walk():
            if isinstance(node, ast.Dict):
                for key in node.keys:
                    value = string_constant(key) if key is not None else None
                    if value is not None:
                        written.setdefault(value, key)
            elif isinstance(node, ast.Subscript):
                key = string_constant(node.slice)
                if key is None:
                    continue
                if isinstance(node.ctx, ast.Store):
                    written.setdefault(key, node)
                else:
                    read.add(key)
            elif isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Attribute) and \
                    node.func.attr == "get" and node.args:
                key = string_constant(node.args[0])
                if key is not None:
                    read.add(key)
        for key in sorted(set(written) - read):
            yield self.violation(
                ctx, written[key],
                f"persistence serializes key {key!r} but never reads it "
                f"back; the field is silently dropped on load")

    def _check_snapshots(self, ctx: FileContext) -> Iterable[Violation]:
        """Manifest/segment keys written by ``save()`` must be read
        somewhere in the module (load, verify, or stats).

        Scoped to ``save`` on the write side: the snapshot module also
        builds plenty of non-schema dict literals (stats payloads,
        verify reports) whose keys are consumed by callers, not by the
        module itself.
        """
        written: dict[str, ast.AST] = {}
        read: set[str] = set()
        for node in ctx.walk():
            if isinstance(node, ast.FunctionDef) and node.name == "save":
                for sub in ast.walk(node):
                    if isinstance(sub, ast.Dict):
                        for key in sub.keys:
                            value = string_constant(key) \
                                if key is not None else None
                            if value is not None:
                                written.setdefault(value, key)
                    elif isinstance(sub, ast.Subscript) and \
                            isinstance(sub.ctx, ast.Store):
                        value = string_constant(sub.slice)
                        if value is not None:
                            written.setdefault(value, sub)
            elif isinstance(node, ast.Subscript) and \
                    not isinstance(node.ctx, ast.Store):
                key = string_constant(node.slice)
                if key is not None:
                    read.add(key)
            elif isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Attribute) and \
                    node.func.attr in ("get", "pop") and node.args:
                # .pop(key) consumes a key as surely as .get(key), so
                # it counts as a read
                key = string_constant(node.args[0])
                if key is not None:
                    read.add(key)
        for key in sorted(set(written) - read):
            yield self.violation(
                ctx, written[key],
                f"snapshot save() writes manifest key {key!r} but the "
                f"module never reads it; the load/verify path silently "
                f"ignores the field")

    def _check_stage1_model(self, ctx: FileContext) -> Iterable[Violation]:
        """Every key ``AdvicePrefilter.to_dict`` writes must be read by
        ``from_dict`` (subscript load or ``.get(...)``).

        Scoped to the two methods: the module also builds training
        metadata dicts whose keys are consumed elsewhere, and a
        module-wide scan would satisfy the check trivially.
        """
        class_def = _class_def(ctx, "AdvicePrefilter")
        if class_def is None:
            return
        to_dict = next((item for item in class_def.body
                        if isinstance(item, ast.FunctionDef)
                        and item.name == "to_dict"), None)
        from_dict = next((item for item in class_def.body
                          if isinstance(item, ast.FunctionDef)
                          and item.name == "from_dict"), None)
        if to_dict is None or from_dict is None:
            return
        written: dict[str, ast.AST] = {}
        for node in ast.walk(to_dict):
            if isinstance(node, ast.Dict):
                for key in node.keys:
                    value = string_constant(key) if key is not None else None
                    if value is not None:
                        written.setdefault(value, key)
            elif isinstance(node, ast.Subscript) and \
                    isinstance(node.ctx, ast.Store):
                value = string_constant(node.slice)
                if value is not None:
                    written.setdefault(value, node)
        read: set[str] = set()
        for node in ast.walk(from_dict):
            if isinstance(node, ast.Subscript) and \
                    not isinstance(node.ctx, ast.Store):
                key = string_constant(node.slice)
                if key is not None:
                    read.add(key)
            elif isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Attribute) and \
                    node.func.attr == "get" and node.args:
                key = string_constant(node.args[0])
                if key is not None:
                    read.add(key)
        for key in sorted(set(written) - read):
            yield self.violation(
                ctx, written[key],
                f"AdvicePrefilter.to_dict() writes artifact key {key!r} "
                f"but from_dict() never reads it; the field is silently "
                f"dropped on every model load")

    def _check_binindex(self, ctx: FileContext) -> Iterable[Violation]:
        """Every array the binary header schema declares must be
        written by ``pack_index`` and read by ``restore_recommender``.

        Scoped to those two functions by name: the module-level
        ``ARRAY_DTYPES`` table mentions every array too, so a
        module-wide literal scan would satisfy both sides trivially
        and the check would never fire.
        """
        declared = ((_tuple_literal(ctx, "SEGMENT_ARRAYS") or [])
                    + (_tuple_literal(ctx, "GLOBAL_ARRAYS") or []))
        if not declared:
            return
        pack = _function_def(ctx, "pack_index")
        restore = _function_def(ctx, "restore_recommender")
        packed = _string_literals(pack) if pack is not None else None
        restored = (_string_literals(restore)
                    if restore is not None else None)
        for name in declared:
            if packed is not None and name not in packed:
                yield self.violation(
                    ctx, pack,
                    f"binary header schema declares array {name!r} but "
                    f"pack_index() never writes it; every load fails "
                    f"the sidecar's array-name-set validation")
            if restored is not None and name not in restored:
                yield self.violation(
                    ctx, restore,
                    f"binary header schema declares array {name!r} but "
                    f"restore_recommender() never reads it; the bytes "
                    f"round-trip to nowhere")
