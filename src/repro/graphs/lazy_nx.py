"""``networkx`` on first use: ``from repro.graphs import lazy_nx as nx``.

``import networkx`` is about a third of ``import repro``, and a run on the
CSR-direct topologies never touches it.  Attribute access imports it and
caches the attribute here (PEP 562), so only the first lookup pays.
"""


def __getattr__(name: str):
    import networkx

    value = globals()[name] = getattr(networkx, name)
    return value
