"""Every module-level import in the package and in its tests is used by
its module, every public function of the autodiff engine is used by another
package module and, bar `backward`, by two, every public function and class
of every package module and every public method of `SequenceEncoder` has a
reader outside its own definition, no package module but the CLI prints, no
package module but `structures` reads the node kinds of a taxonomy drawing,
and no package module but `querygraph` reads the SPARQL subset's tokens,
escapes or parser or spells the token layout of a serialized query graph."""

import ast
import importlib
from pathlib import Path

import pytest

import sskgqa
from reference import (
    ReferenceAdamW,
    reference_classifier_loss,
    reference_encoder_forward,
    reference_margin_loss,
    reference_score_nodes,
)
from sskgqa import autodiff as ad
from sskgqa import classifier as clf
from sskgqa import embeddings as emb
from sskgqa import ranker as rk
from sskgqa.encoder import SequenceEncoder
from sskgqa.structures import builtin_taxonomy

PACKAGE = Path(sskgqa.__file__).resolve().parent
BENCH = Path(__file__).resolve().parents[1] / "pipebench"
MODULES = sorted(PACKAGE.glob("*.py"))
TEST_MODULES = sorted(Path(__file__).resolve().parent.glob("*.py"))
BENCH_MODULES = sorted(BENCH.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by top-level imports (bar `from __future__`) that no
    expression in the module reads."""
    tree = ast.parse(source)
    bound = []
    for stmt in tree.body:
        if isinstance(stmt, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in stmt.names]
        elif isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__":
            bound += [a.asname or a.name for a in stmt.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in read]


def test_unused_imports_are_found():
    src = "from __future__ import annotations\nimport os, numpy as np\nfrom a.b import c, d\nx: c = np.zeros(1)\n"
    assert unused_imports(src) == ["os", "d"]


@pytest.mark.parametrize(
    "path", MODULES + TEST_MODULES, ids=[p.stem for p in MODULES] + [f"tests.{p.stem}" for p in TEST_MODULES]
)
def test_module_imports_are_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def attributes_read(source: str, alias: str) -> set[str]:
    """The attributes of the name `alias` a module reads (`ad.rows` gives "rows")."""
    return {
        n.attr
        for n in ast.walk(ast.parse(source))
        if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id == alias
    }


def attributes_read_off(source: str, field: str) -> set[str]:
    """The attributes a module reads off a name or an attribute called
    `field` (`encoder.cfg` and `model.encoder.cfg` give "cfg")."""
    return {
        n.attr
        for n in ast.walk(ast.parse(source))
        if isinstance(n, ast.Attribute) and getattr(n.value, "id", getattr(n.value, "attr", None)) == field
    }


def test_attributes_read_are_found():
    assert attributes_read("from . import autodiff as ad\nx = ad.add(ad.Node, y.matmul, m.ad.sub)\n", "ad") == {"add", "Node"}
    src = "a.encoder.forward(x)\nencoder.cfg\nself.encoder.vocab.encode(t)\n"
    assert attributes_read_off(src, "encoder") == {"forward", "cfg", "vocab"}


def engine_functions() -> list[str]:
    """The public functions of the autodiff engine."""
    engine = ast.parse(Path(ad.__file__).read_text(encoding="utf-8"))
    return [n.name for n in engine.body if isinstance(n, ast.FunctionDef) and not n.name.startswith("_")]


def test_every_autodiff_function_is_used_by_the_package():
    # an op that only the reference chains in tests/reference.py build
    # belongs there, not in the engine; package modules read the engine as `ad`
    public = engine_functions()
    read = set()
    for path in MODULES:
        if path.name != "autodiff.py":
            read |= attributes_read(path.read_text(encoding="utf-8"), "ad")
    assert [name for name in public if name not in read] == []


def test_every_autodiff_helper_has_two_readers():
    # a helper that one package module alone reads belongs in that module;
    # `backward`, the engine's entry, has the one caller `optim.AdamW.step`
    readers = {name: [] for name in engine_functions() if name != "backward"}
    for path in MODULES:
        if path.name != "autodiff.py":
            read = names_taken_from(path.read_text(encoding="utf-8"), "autodiff")
            for name in readers:
                if name in read:
                    readers[name].append(path.stem)
    assert {name: stems for name, stems in readers.items() if len(stems) < 2} == {}


def print_calls(source: str) -> list[int]:
    """Line numbers of the calls to the builtin `print` in a module."""
    return [
        n.lineno
        for n in ast.walk(ast.parse(source))
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "print"
    ]


def test_print_calls_are_found():
    assert print_calls("import sys\nprint(1)\nx = sys.stdout.write\nif x:\n    print('a', file=sys.stderr)\n") == [2, 5]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "cli.py"], ids=lambda p: p.stem)
def test_library_code_never_prints(path):
    assert print_calls(path.read_text(encoding="utf-8")) == []


# the node kinds of the drawing a taxonomy file gives, which only
# `structures.structure_of` reads
DRAWING_NAMES = {"E_TOPIC", "E_CONST", "VAR", "ANSWER", "KINDS"}


def names_taken_from(source: str, module: str) -> set[str]:
    """The names a module takes from the module named `module`, by import or
    as an attribute of the module."""
    tree = ast.parse(source)
    aliases, read = set(), set()
    for n in ast.walk(tree):
        if isinstance(n, ast.ImportFrom) and n.module and n.module.split(".")[-1] == module:
            read |= {a.name for a in n.names}
        elif isinstance(n, ast.ImportFrom):
            aliases |= {a.asname or a.name for a in n.names if a.name == module}
        elif isinstance(n, ast.Import):
            aliases |= {a.asname for a in n.names if a.name.endswith(f".{module}") and a.asname}
    for alias in aliases:
        read |= attributes_read(source, alias)
    return read


def drawing_names_read(source: str) -> set[str]:
    """The names of `DRAWING_NAMES` a module takes from `structures`."""
    return names_taken_from(source, "structures") & DRAWING_NAMES


def test_drawing_names_read_are_found():
    src = (
        "from .structures import KINDS, Taxonomy\nfrom . import structures as st, embeddings as emb\n"
        "import sskgqa.structures as s2\nx = st.VAR, emb.KINDS, st.Taxonomy, s2.E_TOPIC\n"
    )
    assert drawing_names_read(src) == {"KINDS", "VAR", "E_TOPIC"}


def test_only_structures_reads_node_kinds():
    read = {p.stem: drawing_names_read(p.read_text(encoding="utf-8")) for p in MODULES if p.name != "structures.py"}
    assert {stem: names for stem, names in read.items() if names} == {}


# the SPARQL subset's delimiters, escapes, tokens and parser, which only
# `querygraph` defines and reads; other modules write a query with
# `to_sparql` and read one with `sparql_chain`
SPARQL_NAMES = {
    "_DELIMITERS", "_TOKEN_RE", "_NEEDS_ESCAPE", "_UNSUPPORTED_OPS", "_UNSUPPORTED_KEYWORDS", "_encode_iri",
    "decode_iri", "_take", "_term", "parse_sparql", "SparqlAst", "SparqlError", "extract_query_graph",
}


def names_in(source: str) -> set[str]:
    """Every name a module reads, binds, or gives a function or class."""
    return {
        getattr(n, "id", getattr(n, "name", None))
        for n in ast.walk(ast.parse(source))
        if isinstance(n, (ast.Name, ast.FunctionDef, ast.ClassDef))
    }


def test_only_querygraph_reads_the_sparql_subset():
    taken, named = {}, {}
    for p in MODULES:
        if p.name != "querygraph.py":
            source = p.read_text(encoding="utf-8")
            taken[p.stem] = names_taken_from(source, "querygraph") & (SPARQL_NAMES | {"sparql_chain", "to_sparql"})
            named[p.stem] = names_in(source) & SPARQL_NAMES
    assert {stem: names for stem, names in taken.items() if names} == {
        "annotation": {"sparql_chain"},
        "pipeline": {"sparql_chain"},
        "synth": {"to_sparql"},
    }
    # nor does any define a token or escape pattern of its own under those names
    assert {stem: names for stem, names in named.items() if names} == {}


# the layout of a serialized query graph past its symbols' fragments: the
# path nodes' names and the marker of a reversed hop, which only
# `querygraph.serialize_tokens` spells; other modules take its tokens
LAYOUT_NAMES = {"_path_names", "CHAIN_VAR_NAMES"}


def layout_spelled(source: str) -> set[str]:
    """The names of `LAYOUT_NAMES` a module takes from `querygraph` or names
    itself, and the reverse marker if a string constant spells it."""
    marker = {n.value for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Constant) and n.value == "reverse"}
    return (names_taken_from(source, "querygraph") | names_in(source)) & LAYOUT_NAMES | marker


def test_layout_spelled_is_found():
    src = (
        "from .querygraph import _path_names\nfrom . import querygraph as qg\n"
        "# a reverse hop\nx = qg.CHAIN_VAR_NAMES, qg.serialize_tokens, 'reversed'\ny = ['reverse']\n"
    )
    assert layout_spelled(src) == {"_path_names", "CHAIN_VAR_NAMES", "reverse"}


def test_only_querygraph_spells_the_token_layout():
    spelled = {p.stem: layout_spelled(p.read_text(encoding="utf-8")) for p in MODULES if p.name != "querygraph.py"}
    assert {stem: names for stem, names in spelled.items() if names} == {}


# the encoder's bounds on a forward: the tokens of a sequence it reads and
# the sequences of a block it runs; its callers hand it whole batches
ENCODER_BOUNDS = {"ENCODE_CHUNK", "MAX_TOKENS"}


def test_only_encoder_reads_its_bounds():
    read = {}
    for p in MODULES:
        if p.name != "encoder.py":
            source = p.read_text(encoding="utf-8")
            read[p.stem] = (names_taken_from(source, "encoder") | names_in(source)) & ENCODER_BOUNDS
    assert {stem: names for stem, names in read.items() if names} == {}


@pytest.fixture
def traced(monkeypatch) -> list[tuple[str, str]]:
    """(module, "func" or "Class.method") of each target the benchmark's
    tracer wraps."""
    monkeypatch.syspath_prepend(str(BENCH))
    import layertrace

    return [(t.module, t.name) for t in layertrace.TARGETS]


def unread_public_names(module: str, traced: list[tuple[str, str]]) -> list[str]:
    """The public functions and classes of the package module `module` that
    no other package module, no benchmark module, no tracer target and no
    body of `module` other than its own definition reads."""
    path = PACKAGE / f"{module}.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    public = [
        n for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and not n.name.startswith("_")
    ]
    bodies = [(stmt, {n.id for n in ast.walk(stmt) if isinstance(n, ast.Name)}) for stmt in tree.body]
    read = {name.split(".")[0] for m, name in traced if m == module}
    for other in MODULES + BENCH_MODULES:
        if other != path:
            read |= names_taken_from(other.read_text(encoding="utf-8"), module)
    own = [d.name for d in public if any(d.name in names for stmt, names in bodies if stmt is not d)]
    return [d.name for d in public if d.name not in read and d.name not in own]


@pytest.mark.parametrize("module", [p.stem for p in MODULES if p.stem != "__init__"])
def test_every_function_and_class_has_a_reader(module, traced):
    # a public name that only tests call is a second API beside the one the
    # package uses
    assert unread_public_names(module, traced) == []


def test_every_sequence_encoder_method_has_a_reader(traced):
    # read as `self.<name>` by another of its methods, or, in a package
    # module or the benchmark, off an `encoder` or off the class;
    # `Vocab.encode`, read off a `vocab`, is not one of them
    tree = ast.parse((PACKAGE / "encoder.py").read_text(encoding="utf-8"))
    cls = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "SequenceEncoder")
    methods = [n for n in cls.body if isinstance(n, ast.FunctionDef) and not n.name.startswith("_")]
    read = {name.split(".")[1] for m, name in traced if m == "encoder" and name.startswith("SequenceEncoder.")}
    for path in MODULES + BENCH_MODULES:
        source = path.read_text(encoding="utf-8")
        read |= attributes_read_off(source, "encoder") | attributes_read(source, "SequenceEncoder")
    own = {m.name for m in methods if any(m.name in attributes_read(ast.unparse(o), "self") for o in cls.body if o is not m)}
    assert [m.name for m in methods if m.name not in read | own] == []


def test_every_input_error_is_a_value_error():
    # the CLI turns a ValueError (or an OSError) into one error line; only
    # the autodiff engine's program faults end in a traceback
    defined = {}
    for path in MODULES:
        module = importlib.import_module("sskgqa" if path.stem == "__init__" else f"sskgqa.{path.stem}")
        defined |= {
            (path.stem, name): obj
            for name, obj in vars(module).items()
            if isinstance(obj, type) and issubclass(obj, BaseException) and obj.__module__ == module.__name__
        }
    faults = {key for key, cls in defined.items() if not issubclass(cls, ValueError)}
    assert faults == {("autodiff", "ShapeError"), ("autodiff", "ContractError")}
    assert len(defined) > len(faults)


def test_cli_catches_only_os_and_value_errors():
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    main = next(f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == "main")
    handlers = [h for node in ast.walk(main) if isinstance(node, ast.Try) for h in node.handlers]
    assert [ast.unparse(h.type) for h in handlers] == ["(OSError, ValueError)"]


def test_benchmark_finds_every_name_it_uses(monkeypatch):
    # pipebench/workloads imports the sskgqa names the benchmark calls, and
    # its tracer wraps the layer entry points its per-layer metrics are
    # computed from; a target it cannot find drops those metrics from a
    # traced run. Only the targets in the kernels module, which the package
    # no longer has, are absent. Training the three models on a tiny problem
    # builds every config the benchmark builds, with its keywords.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "pipebench"))
    import inputs
    import layertrace
    import workloads

    with layertrace.Tracer() as tr:
        pass
    assert tr.absent == [f"kernels.{k}" for k in layertrace.KERNELS]
    tax = builtin_taxonomy()
    kg, train_qs, _ = inputs.mixed_inputs(5, tax, workloads.TINY.mixed)
    trained = workloads.train_all(kg, train_qs, tax, workloads.TINY, 5)
    assert trained.ranker.trained_on > 0


def test_benchmark_models_equal_the_reference_chain(monkeypatch):
    # The digest the benchmark takes of its trained models, with every
    # trainer stepping per parameter through the per-head encoder chain, as
    # the packed and fused training tests in test_optim do, and the
    # classifier's head and loss and the embeddings' scores and loss built
    # as the chains of tape nodes cross_entropy, score_nodes and margin_loss
    # fuse: the fused nodes and the packed optimizer leave the benchmark's
    # models as they were.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "pipebench"))
    import inputs
    import workloads

    tax = builtin_taxonomy()
    kg, train_qs, _ = inputs.mixed_inputs(5, tax, workloads.TINY.mixed)
    got = workloads.train_all(kg, train_qs, tax, workloads.TINY, 5).digest()
    monkeypatch.setattr(SequenceEncoder, "forward", reference_encoder_forward)
    monkeypatch.setattr(clf, "cross_entropy", reference_classifier_loss)
    monkeypatch.setattr(emb, "score_nodes", reference_score_nodes)
    monkeypatch.setattr(emb, "margin_loss", reference_margin_loss)
    for module in (emb, clf, rk):
        monkeypatch.setattr(module, "AdamW", ReferenceAdamW)
    assert workloads.train_all(kg, train_qs, tax, workloads.TINY, 5).digest() == got
