import importlib.util
import os
import shutil
import signal
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

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


TOY_TEST = '''import os
import time
from pathlib import Path


def test_waits():
    Path(os.environ["SWEEP_MARKER"]).write_text(str(os.getpid()))
    time.sleep(30)
'''


def test_sweep_stopped_by_sigterm_kills_its_tests_and_removes_its_copy(tmp_path):
    # a checkout of the tool, one module and one slow test, with its own temp directory
    toy, tmp, marker = tmp_path / "toy", tmp_path / "tmp", tmp_path / "pid"
    (toy / "tools").mkdir(parents=True)
    (toy / "src" / "fracspec").mkdir(parents=True)
    (toy / "tests").mkdir()
    tmp.mkdir()
    shutil.copy(ROOT / "tools" / "mutation_sweep.py", toy / "tools")
    (toy / "src" / "fracspec" / "toy.py").write_text("X = 1 + 1\n")
    (toy / "tests" / "test_toy.py").write_text(TOY_TEST)
    subprocess.run(["git", "init", "-q"], cwd=toy, check=True)
    env = {**os.environ, "TMPDIR": str(tmp), "SWEEP_MARKER": str(marker)}
    sweep = subprocess.Popen([sys.executable, str(toy / "tools" / "mutation_sweep.py"), "toy"],
                             cwd=toy, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    pid = None
    try:
        deadline = time.monotonic() + 60.0
        while not marker.exists() and sweep.poll() is None and time.monotonic() < deadline:
            time.sleep(0.05)
        time.sleep(0.2)  # the marker is written; let the test reach its sleep
        pid = int(marker.read_text())
        [copy] = tmp.glob("mutation_sweep_*")  # the unmutated copy's tests are running
        assert (copy / "src" / "fracspec" / "toy.py").is_file()
        sweep.send_signal(signal.SIGTERM)
        sweep.communicate(timeout=60.0)
        assert sweep.returncode == 128 + signal.SIGTERM
        assert list(tmp.iterdir()) == []
        with pytest.raises(ProcessLookupError):  # the sweep's tests did not outlive it
            os.kill(pid, 0)
    finally:
        if sweep.poll() is None:
            sweep.kill()
            sweep.wait()
        if pid is not None:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
