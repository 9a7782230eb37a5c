"""Self-transparency work logging suite.

A shout is a short timestamped note about ongoing work. This package
provides the server that stores shouts, the terminal client that times
sessions of them, an IRC bot front end, a miner for historical logs, an
RDF exporter, and a statistics engine.
"""
