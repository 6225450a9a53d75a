"""Reference implementations the property tests compare against.

Straightforward, slow code kept out of ``src/``: the program never calls
it.  Test modules import it as ``oracles.<module>`` (``tests/`` is on
``sys.path`` under pytest); scripts elsewhere add ``tests/`` first.
"""
