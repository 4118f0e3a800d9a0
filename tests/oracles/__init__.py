"""Reference oracles: the pre-vectorization implementations the property
suites check the array cores against.  They live under ``tests/`` so
nothing in ``src/`` can import them."""
