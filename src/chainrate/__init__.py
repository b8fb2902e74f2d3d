"""Secret-key rates for entanglement-swapping chains with a corrupted middle segment.

The library splits into a small algebra of two-bit symbols and their
distributions (:mod:`chainrate.bell`), an exact density-matrix reference and
literal estimators that certify the fast paths (:mod:`chainrate.dm_oracle`,
:mod:`chainrate.literal`), the chain noise model (:mod:`chainrate.noise`),
finite-sample estimation bounds (:mod:`chainrate.sampling`), the key-rate
formulas (:mod:`chainrate.keyrate`), a seeded count-level simulator
(:mod:`chainrate.montecarlo`), and a self-verification suite
(:mod:`chainrate.verify`) surfaced by the CLI (:mod:`chainrate.cli`).
"""

__version__ = "0.1.0"
