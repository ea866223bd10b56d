"""Duplicate-elimination active memory for imbalanced self-supervised learning.

The package is organized bottom-up:

- kernels: duplication-probability kernels over unit embeddings
- information: Hebbian / distinctiveness information and the HML loss
- memory: fixed-capacity active memory with the DUEL policy and baselines
- codec: the JSON codec for configs and checkpoint metadata
- trainer: memory-augmented InfoNCE training in pure numpy
- streams: synthetic imbalanced pair streams and embedding-file IO
- metrics: memory and representation diagnostics
- harness: seeded experiment runs, policy benchmarks, artifacts, checkpoints
- verify: executable invariant checks (also `duelmem verify` on the CLI)

Each name is imported from the module that defines it, as in
`from duelmem.memory import ActiveMemory`; `import duelmem` loads no
submodule.
"""

__version__ = "0.1.0"
