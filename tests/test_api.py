"""The public surface is what README's "Library API" section names.

`rscodec.__all__` must equal the bare names listed there, and every public
method, property and dataclass field of the core classes must either be
named there as `Class.member` or be read, as an attribute of that name,
somewhere in `src/rscodec` outside its own definition (a read off an
imported module, such as `np.zeros`, does not count).  A name with
neither has no caller and no stated reason to exist.
"""

import ast
import dataclasses
import re
from pathlib import Path

import rscodec

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "rscodec"
CLASSES = (rscodec.Field, rscodec.Poly, rscodec.FeMat, rscodec.RSCode,
           rscodec.DecodeOutcome, rscodec.DecodeTrace)
# Object protocol, not operations of the class.
PROTOCOL = {"__init__", "__eq__", "__hash__", "__repr__"}


def _api_section() -> str:
    text = (ROOT / "README.md").read_text()
    start = text.index("\n## Library API\n")
    end = text.find("\n## ", start + 1)
    return text[start:end if end >= 0 else len(text)]


def _documented() -> tuple[set[str], set[str]]:
    """Bare names and `Class.member` names in backticks in the section."""
    names = re.findall(r"`([^`]+)`", _api_section())
    bare = {x for x in names if x.isidentifier()}
    members = {x for x in names if re.fullmatch(r"[A-Z]\w*\.\w+", x)}
    return bare, members


def _public_members(cls) -> set[str]:
    fields = {f.name for f in dataclasses.fields(cls)} if dataclasses.is_dataclass(cls) else set()
    defined = {name for name, value in vars(cls).items()
               if callable(value) or isinstance(value, (property, classmethod, staticmethod))}
    return {name for name in fields | defined
            if not name.startswith("_") or name.endswith("__") and name not in PROTOCOL}


def _attribute_reads() -> list[tuple[str, tuple[str, str] | None]]:
    """Each attribute read in src/rscodec, except reads off an imported
    module, with the (class, method) it is read in, or None."""
    reads = []
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text())
        modules = {(a.asname or a.name).split(".")[0]
                   for node in ast.walk(tree) if isinstance(node, ast.Import)
                   for a in node.names}
        site = {id(sub): (node.name, item.name)
                for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
                for item in node.body if isinstance(item, ast.FunctionDef)
                for sub in ast.walk(item)}
        reads += [(node.attr, site.get(id(node))) for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                  and not (isinstance(node.value, ast.Name) and node.value.id in modules)]
    return reads


def test_benchmark_bindings():
    # The benchmark reads and wraps these names; they are one registry.
    import rscodec.bench
    import rscodec.cli
    import rscodec.decode_interp

    assert rscodec.cli.decode is rscodec.decode
    for registry in (rscodec.cli.CLI_DECODERS, rscodec.bench.DECODERS,
                     rscodec.decode_interp.DECODERS):
        assert registry is rscodec.DECODERS
    di = rscodec.decode_interp
    assert rscodec.DECODERS == {"interp": di.decode, "interp-pos": di.decode_via_positions,
                                "pgz": di.pgz_decode, "bm": di.bm_decode}  # functions: `is`


def test_all_is_the_readme_list():
    bare, _ = _documented()
    assert bare == set(rscodec.__all__)


def test_readme_members_exist():
    _, members = _documented()
    public = {f"{cls.__name__}.{name}" for cls in CLASSES for name in _public_members(cls)}
    assert members <= public


def test_every_public_member_is_documented_or_called():
    _, members = _documented()
    reads = _attribute_reads()
    unused = set()
    for cls in CLASSES:
        called = {attr for attr, site in reads if site != (cls.__name__, attr)}
        unused |= {f"{cls.__name__}.{name}" for name in _public_members(cls)
                   if name not in called and f"{cls.__name__}.{name}" not in members}
    assert not unused
