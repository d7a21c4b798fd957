"""The reference oracle for the packet plane.

:mod:`.scalar` holds the hop-by-hop transit walk, ``ScalarEngine``,
whose semantics the batched plane in ``repro.netsim.batch`` must
reproduce exactly. It lives with the tests because no production code
runs it: the parity suites drive ``src/`` against it.
"""
