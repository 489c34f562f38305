import importlib.util
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("mutation_sweep",
                                               ROOT / "tools" / "mutation_sweep.py")
mutation_sweep = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutation_sweep)

TOY = '''"""A docstring with < and + in it."""
LIMIT = 1e-6


def f(x, y, items):
    # a comment with * and and
    total = (x + y) * 2 - x / 3
    total += 0.5
    if x is not None and (y <= LIMIT or y in items):
        return total == 0.0
    flag = not x > y
    return flag is True != (y not in items)
'''


def test_sweep_enumerates_every_single_token_site_of_a_toy_source():
    sites = mutation_sweep.enumerate_sites(TOY)
    assert Counter((s.old, s.new) for s in sites) == Counter({
        ("1e-6", "2e-06"): 1, ("1e-6", "5e-07"): 1,
        ("+", "-"): 1, ("*", "/"): 1, ("-", "+"): 1, ("/", "*"): 1,
        ("+=", "-="): 1, ("0.5", "1.0"): 1, ("0.5", "0.25"): 1,
        ("is not", "is"): 1, ("and", "or"): 1, ("<=", "<"): 1, ("or", "and"): 1,
        ("in", "not in"): 1, ("==", "!="): 1, (">", ">="): 1,
        ("is", "is not"): 1, ("True", "False"): 1, ("!=", "=="): 1, ("not in", "in"): 1,
    })  # 0.0 is not scaled: its double is itself
    lines = TOY.splitlines()
    for site in sites:
        mutant = site.apply(TOY)
        compile(mutant, "toy", "exec")  # every mutant is valid python
        assert TOY[site.start:site.end] == site.old and site.old in lines[site.line - 1]
        # the mutant differs from the source in that one token and nowhere else
        assert mutant.splitlines()[:site.line - 1] == lines[:site.line - 1]
        assert mutant.splitlines()[site.line:] == lines[site.line:]

