import ast
from pathlib import Path

SRC = Path(__file__).parents[1] / "src" / "densityk"

# checks between two values, which no one domain states: (file, the literal text of the message)
RELATIONAL = {("synth.py", "decoys_per_mention must be (lo, hi) with lo <= hi, got ")}


def must_be_raises() -> list[tuple[str, int, str]]:
    # every `raise ValueError(<message>)` whose message's literal text says "must be"
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) and node.exc.args):
                continue
            if getattr(node.exc.func, "id", None) != "ValueError":
                continue
            text = "".join(
                part.value
                for part in ast.walk(node.exc.args[0])
                if isinstance(part, ast.Constant) and isinstance(part.value, str)
            )
            if "must be" in text:
                found.append((path.name, node.lineno, text))
    return found


def test_only_the_domain_module_says_a_parameter_must_be():
    # a range is a Domain in densityk.params, checked through a Param, not
    # a message spelled where the parameter is used
    found = must_be_raises()
    assert [(name, line, text) for name, line, text in found if name != "params.py" and (name, text) not in RELATIONAL] == []
    assert RELATIONAL <= {(name, text) for name, _, text in found}  # no stale allowance
