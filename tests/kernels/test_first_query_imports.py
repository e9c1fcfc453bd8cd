"""A one-shot query pays only for what it uses.

Plain ``np.unique`` calls ``np.ma.is_masked``, which imports
``numpy.ma`` (11–40 ms) on the first call; the kernels unique through
:func:`repro.kernels.lca.sorted_unique` instead.  Checked in a fresh
interpreter, where nothing has imported ``numpy.ma`` yet.
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
