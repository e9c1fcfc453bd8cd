"""A one-shot query pays only for what it uses.

Plain ``np.unique`` calls ``np.ma.is_masked``, which imports
``numpy.ma`` (11–40 ms) on the first call; the kernels unique through
:func:`repro.kernels.lca.sorted_unique` instead.  The execution layer
(``repro.exec``) and the HTTP service (``http.server`` under
``repro.api.server``) load on first use, so neither ``import repro``
nor a monolithic open imports them.  Checked in a fresh interpreter,
where nothing has imported those modules yet.
"""

import os
import subprocess
import sys
from pathlib import Path

from repro.datamodel.serializer import serialize
from repro.datasets import figure1_document

SRC = Path(__file__).resolve().parents[2] / "src"

PROBE = """
import sys
from repro.api import Database
db = Database.open(sys.argv[1], cache=None)
assert db.nearest("Bit", "1999").answers
print(db.stats()["backend"], "numpy.ma" in sys.modules)
"""

#: Prints, after each step, whether any module of the execution layer
#: or the HTTP service has been imported.
LAZY_PROBE = """
import sys

def loaded():
    return any(
        name == "http.server" or name.split(".")[:2] == ["repro", "exec"]
        for name in sys.modules
    )

import repro
print(loaded())
db = repro.open(sys.argv[1], cache=None)
print(loaded())
assert db.nearest("Bit", "1999").answers
print(loaded())
from repro import ReproServer, ShardedCollection
print(loaded(), ReproServer.__name__, ShardedCollection.__name__)
"""


def test_first_nearest_on_a_parsed_open_never_imports_numpy_ma(tmp_path):
    xml = tmp_path / "bib.xml"
    xml.write_text(serialize(figure1_document()), encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-c", PROBE, str(xml)],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout.split() == ["vector", "False"]


def test_import_and_parsed_open_never_import_exec_or_http_server(tmp_path):
    xml = tmp_path / "bib.xml"
    xml.write_text(serialize(figure1_document()), encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-c", LAZY_PROBE, str(xml)],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout.split() == [
        "False",
        "False",
        "False",
        "True",
        "ReproServer",
        "ShardedCollection",
    ]
