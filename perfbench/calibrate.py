"""Fixed work that measures how fast the machine runs qsink-like code right now.

Started as a child process between workload passes: interpreter start,
numpy import, then small-matrix numpy calls mixed with pure-Python
arithmetic, the same mix the workloads spend their time in.  It never
imports qsink, so no change to the package can move its time.
"""

import numpy as np

ROUNDS = 4000

matrix = np.arange(16.0).reshape(4, 4)
matrix = matrix + matrix.T
total = 0.0
for k in range(ROUNDS):
    total += float(np.linalg.eigvalsh(matrix + k * 1e-9)[0])
    total += float(np.einsum("ij,ji->", matrix, matrix))
    total += sum(i * i for i in range(30))
