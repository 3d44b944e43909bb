"""Mutation pass over named top-level definitions of one module.

Each mutant flips one comparison (< and <=, > and >=, == and !=, is and
is not, in and not in) or adds 1 to one integer constant, where -(c)
counts as the constant -c, so -1 becomes 0. It is written into a
temporary copy of the module's package, put first on the import path;
the working tree stays untouched. The given pytest selection runs on
each mutant with -x, and the mutants it passes on are printed as
survivors. Mutants inside an EQUIVALENT name or comparison are skipped.

    python tools/mutants.py src/dfsqkd/session.py simulate_alice _draw_pair_slots -- tests/test_session.py

A run takes minutes, so it stays out of CI and out of tier-1. Tests that
start the package in a child process import it from src/ (see
tests/conftest.py), so select tests that run it in-process.
"""

import ast
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

FLIP = {ast.Lt: ast.LtE, ast.Gt: ast.GtE, ast.Eq: ast.NotEq, ast.Is: ast.IsNot, ast.In: ast.NotIn}
FLIP.update({new: old for old, new in FLIP.items()})
EQUIVALENT = {
    "GAP_BATCH": "gaps per draw: the stream is set back to just after the last gap used",
    "_room": "sizes a gap batch and the slot array, which grows when the estimate runs short",
    "BORN_BLOCK": "pair slots per outcome block: the blocks take the words of one draw, in order",
    "k + new > len(slots)": "also grows the slot array when it is exactly full, which keeps every slot",
}
MEMORY_CAP = 4 << 30  # bytes of address space per test run: a mutant may allocate without bound


def _label(node):
    """What EQUIVALENT and the targets name a node by: a definition's or
    an assignment's name, a called name, or a comparison's text."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return node.name
    if isinstance(node, (ast.Assign, ast.Call, ast.Compare)):
        return ast.unparse(node.targets[0] if isinstance(node, ast.Assign) else getattr(node, "func", node))


def _int(node):
    return isinstance(node, ast.Constant) and type(node.value) is int


def sites(tree, targets):
    """(node, comparison index or None, reason if equivalent) of each
    mutant in the top-level definitions named `targets`, in a fixed order."""
    def walk(node, reason):
        reason = reason or EQUIVALENT.get(_label(node))
        if isinstance(node, ast.Compare):
            yield from ((node, i, reason) for i in range(len(node.ops)))
        if _int(node) or isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub) and _int(node.operand):
            yield node, None, reason
            return
        for child in ast.iter_child_nodes(node):
            yield from walk(child, reason)
    for node in tree.body:
        if _label(node) in targets:
            yield from walk(node, None)


def mutate(node, op):
    """Apply one mutant in place, and describe it."""
    if op is not None:
        old, node.ops[op] = node.ops[op], FLIP[type(node.ops[op])]()
        return f"{type(old).__name__} -> {type(node.ops[op]).__name__} in {ast.unparse(node)}"
    if isinstance(node, ast.UnaryOp):
        node.operand.value -= 1
        return f"-{node.operand.value + 1} -> -{node.operand.value}"
    node.value += 1
    return f"{node.value - 1} -> {node.value}"


def passes(root, pytest_args, timeout):
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "-o", f"pythonpath={root}", *pytest_args]
    cap = lambda: resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))  # noqa: E731
    try:
        return subprocess.run(cmd, capture_output=True, timeout=timeout, preexec_fn=cap).returncode == 0
    except subprocess.TimeoutExpired:
        return False


def main(argv):
    split = argv.index("--")
    module, targets, pytest_args = Path(argv[0]), set(argv[1:split]), argv[split + 1 :]
    source = module.read_text()
    with tempfile.TemporaryDirectory() as root:
        package = Path(root) / module.parent.name
        shutil.copytree(module.parent, package)
        start = time.monotonic()
        if not passes(root, pytest_args, None):
            sys.exit("the selection fails on the unmutated module")
        timeout, survived, tried = 10 * (time.monotonic() - start) + 30, 0, 0
        for i in range(len(list(sites(ast.parse(source), targets)))):
            tree = ast.parse(source)
            node, op, reason = list(sites(tree, targets))[i]
            what = f"line {node.lineno}: {mutate(node, op)}"
            if reason:
                print(f"equivalent {what} ({reason})")
                continue
            (package / module.name).write_text(ast.unparse(tree))
            tried += 1
            if passes(root, pytest_args, timeout):
                survived += 1
                print(f"SURVIVED   {what}", flush=True)
        print(f"killed {tried - survived} of {tried} mutants")


if __name__ == "__main__":
    main(sys.argv[1:])
