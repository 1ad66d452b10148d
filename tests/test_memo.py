"""The one memo mechanism: clearing every table, and no table outside it."""

import ast
import pathlib

import richardson.invariants as rinv
from richardson import clear_memos
from richardson.charts import chart, generic_matrix
from richardson.invariants import richardson_invariants
from richardson.permutations import Permutation
from richardson.poly import DEGREVLEX, Context, _key_cache
from richardson.sweep import sweep_images

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "richardson"


def test_clear_memos_empties_every_table():
    v, w, sigma = Permutation([1, 3, 2, 4]), Permutation([4, 2, 3, 1]), Permutation([2, 4, 1, 3])
    u = Permutation([3, 1, 4, 2])

    def calls():
        return (
            generic_matrix(u),
            chart(u),
            sweep_images(u),
        )

    first = calls()
    richardson_invariants(v, w, sigma)
    assert all(a is b for a, b in zip(first, calls()))
    before = rinv.TANGENT_CHECKS
    richardson_invariants(v, w, sigma)
    assert rinv.TANGENT_CHECKS == before  # served from the memo

    clear_memos()
    richardson_invariants(v, w, sigma)
    assert rinv.TANGENT_CHECKS == before + 1  # the record was computed again
    assert all(a is not b for a, b in zip(first, calls()))


def _dotted(node) -> str:
    if isinstance(node, ast.Attribute):
        return _dotted(node.value) + "." + node.attr
    return getattr(node, "id", "")


def test_no_memo_outside_the_helper():
    # every process-wide memo goes through richardson.memo, so clear_memos
    # reaches it; the counter lock of invariants is the one other lock
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "memo.py":
            continue
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and (
                isinstance(node.value, ast.Dict) and not node.value.keys
                or isinstance(node.value, ast.Call) and _dotted(node.value.func) == "dict"
            ):
                found.append(f"{path.name}:{node.lineno}: module-level dict")
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _dotted(node.func).split(".")[-1] in ("Lock", "RLock"):
                allowed = path.name == "invariants.py" and any(
                    isinstance(top, ast.Assign)
                    and top.value is node
                    and [_dotted(t) for t in top.targets] == ["_COUNTER_LOCK"]
                    for top in tree.body
                )
                if not allowed:
                    found.append(f"{path.name}:{node.lineno}: lock")
            names = []
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute) and _dotted(node.value) == "functools":
                names = [node.attr]
            if set(names) & {"lru_cache", "cache", "cached_property"}:
                found.append(f"{path.name}:{node.lineno}: functools cache")
    assert found == []


def test_sort_key_caches_live_in_memo_tables():
    # a Context keeps its packed layout past clear_memos(), so the layout
    # holds no cache; the sort-key cache of an order is a memo table
    ctx = Context(("x", "y", "z"))
    assert not any(isinstance(getattr(ctx.pack, s), dict) for s in ctx.pack.__slots__)
    keyf = DEGREVLEX.sort_key(ctx)
    keyf(ctx.monomial(((0, 2), (2, 1))))
    assert _key_cache(3, DEGREVLEX.tag)
    clear_memos()
    assert _key_cache(3, DEGREVLEX.tag) == {}
