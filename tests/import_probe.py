"""Fail if ``import qbracelet; qbracelet.default_catalog()`` newly imports a
module of HEAVY.  Each one adds milliseconds to every start-up, and none is
needed: the value types are NamedTuples, not dataclasses (see README,
"Library layout").

Run with ``python tests/import_probe.py``: it checks whichever qbracelet is
importable (``PYTHONPATH=src`` for the checkout, none for the installed
package) and prints the path it imported.
"""

import sys

HEAVY = {"dataclasses", "inspect", "ast", "dis", "tokenize"}

before = set(sys.modules)
import qbracelet  # noqa: E402  (the modules loaded before it are the baseline)

qbracelet.default_catalog()
new = sorted((set(sys.modules) - before) & HEAVY)
print(qbracelet.__file__)
sys.exit(f"newly imported: {', '.join(new)}" if new else 0)
