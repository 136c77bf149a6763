"""What a process imports: the find path's footprint, no import inside a
fit or search, and the package's lazy names.

The subprocess checks run ``python -S``: without site, no ``.pth`` file
brings modules in before vcmatch does.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import vcmatch

SRC = str(Path(vcmatch.__file__).resolve().parents[1])

# A text on which a kmp scan hands over to its DFA, and one on which its plain
# loop jumps to the pattern's leading constant.
TEXTS = ("aaaab" * 400, "xyz" * 400 + "abcda")
PATTERN = "aABCa"

FIND_FOOTPRINT = """
import sys
import vcmatch.cli
for text in {texts!r}:
    argv = ["find", "--pattern", {pattern!r}, "--text-inline", text, "--algo", {algo!r},
            "--mode", {mode!r}, "--json", "--witness"]
    assert vcmatch.cli.main(argv) == 0
print(*sorted(sys.modules))
"""

FIT_AND_SEARCH = """
import sys
import vcmatch.matchers
before = set(sys.modules)
for algo in ("kmp", "naive"):
    for mode in ("fvc", "pvc"):
        matcher = vcmatch.matchers.make_matcher(algo, mode=mode).fit({pattern!r})
        for text in {texts!r}:
            matcher.find(text, with_witnesses=True)
print(*sorted(set(sys.modules) - before))
"""

# Modules a find with naive or kmp has no use for: dataclasses loads inspect
# (and with it dis and tokenize), and the rest belong to other subcommands
# or the conv backend.
NOT_ON_FIND_PATH = {
    "dataclasses", "inspect", "numpy", "vcmatch.bench", "vcmatch.crosscheck", "vcmatch.convolution",
}


def loaded_modules(script: str) -> set[str]:
    """The names the script prints on its last line, run in a fresh ``python -S``."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-S", "-c", script], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


@pytest.mark.parametrize("mode", ["fvc", "pvc"])
@pytest.mark.parametrize("algo", ["kmp", "naive"])
def test_find_loads_only_its_search(algo, mode):
    script = FIND_FOOTPRINT.format(texts=TEXTS, pattern=PATTERN, algo=algo, mode=mode)
    loaded = loaded_modules(script)
    assert "vcmatch.matchers" in loaded
    assert not loaded & NOT_ON_FIND_PATH


def test_package_import_loads_no_submodule():
    loaded = loaded_modules("import sys, vcmatch\nprint(*sys.modules)")
    assert {name for name in loaded if name.startswith("vcmatch")} == {"vcmatch"}


def test_fit_and_search_import_nothing():
    # Every module a kmp or naive fit needs comes with vcmatch.matchers, so
    # no import falls inside a timed fit or search.
    assert loaded_modules(FIT_AND_SEARCH.format(pattern=PATTERN, texts=TEXTS)) == set()


def test_lazy_names_resolve_to_their_home_objects():
    listed = dir(vcmatch)
    for name, home in vcmatch._HOMES.items():
        assert getattr(vcmatch, name) is getattr(importlib.import_module(f"vcmatch.{home}"), name)
        assert name in listed
    with pytest.raises(AttributeError, match="no_such_name"):
        vcmatch.no_such_name
