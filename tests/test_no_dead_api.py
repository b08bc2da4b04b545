"""Every name the package defines is used by the program, not only by tests.

The scan reads each module of ``src/nellab`` for its module-level functions,
classes and constants and its classes' public methods. A module-level name
passes when it appears as a word anywhere in ``src/``, ``scripts/`` or
``perfbench/`` outside its own definition; a method passes when its leaf
follows a dot there (``.lookup`` for ``PolicyStore.lookup``). The scan does
not know types, so any attribute of the same name still counts: a
``PolicyStore.consent()`` method would pass on ``spec.consent``.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "nellab"
PROGRAM_DIRS = ("src", "scripts", "perfbench")

# Names with no caller in the program, each with the reason it stays.
ALLOWED = {
    "__version__": "package metadata, read by tools rather than called",
    "clear_browsing_data": "the user's clear-data control, for scenario actions to drive",
    # Hooks the standard library's HTTP server calls by name.
    "send_response_only": "http.server hook",
    "do_GET": "http.server hook",
    "do_POST": "http.server hook",
    "log_message": "http.server hook",
    "service_actions": "socketserver hook",
}


def definitions():
    """``(name, path, node, is_method)`` for every scanned definition."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            else:
                continue
            for name in names:
                yield name, path, node, False
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, ast.FunctionDef) and \
                            not member.name.startswith("_"):
                        yield member.name, path, member, True


def unused_names() -> list[tuple[str, str]]:
    """``(name, "module.py:line")`` of each definition no program line uses."""
    program = {path: path.read_text().splitlines()
               for folder in PROGRAM_DIRS for path in sorted((ROOT / folder).rglob("*.py"))}
    unused = []
    for name, path, node, is_method in definitions():
        lead = r"\." if is_method else r"(?<!\w)"
        word = re.compile(lead + re.escape(name) + r"(?!\w)")
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        own = range(first, node.end_lineno + 1)
        if not any(word.search(line)
                   for file, lines in program.items()
                   for number, line in enumerate(lines, 1)
                   if not (file == path and number in own)):
            unused.append((name, f"{path.name}:{node.lineno}"))
    return unused


def test_every_definition_has_a_user_in_the_program():
    assert [entry for entry in unused_names() if entry[0] not in ALLOWED] == []


def test_every_allowed_name_is_still_defined_and_unused():
    # An exemption whose name was deleted or gained a caller is stale.
    assert sorted(name for name, _ in unused_names()) == sorted(ALLOWED)
