"""Primal-dual approximation for quasi-bipartite directed Steiner tree
with exact rational arithmetic and verifiable dual certificates.

The package re-exports nothing: import each name from its module
(`qbdst.instance`, `qbdst.moats`, `qbdst.engine`, `qbdst.audit`,
`qbdst.oracle`, `qbdst.gen`, `qbdst.cli`), so that importing one module
loads only what it needs."""
