"""Machine-speed calibration of end-to-end timings.

The shared 2-vCPU machine the reference figures come from changes speed by
up to a third over stretches of tens of seconds to minutes, far longer than
within-run averaging can absorb. A fixed kernel of the same kind of work as
a workload's operations therefore runs between its rounds. The run's median
kernel time, divided by the kernel's nominal time, is the run's slowdown,
and every end-to-end timing is divided by it: timings read as on a machine
where the kernel takes its nominal time. A change to the library moves the
operations but not the kernel, which uses numpy only.

Over 6-8 short runs per workload, the run's median kernel time correlated
with its median operation time at 0.97 (small dense, lemma1-ring6) and 0.83
(dense eigensolver, prepare-ring5); dividing by it cut the run-to-run
spread of the median operation time from 0.22 to 0.08 and from 0.12 to
0.09. sweep-grid2x2 times both projections and the eigensolver, because its
set-up and sweep batches are eigensolver-bound while its trials are not:
over ten 30 s runs that cut the largest spread of its timings from 0.37
(median trial) to 0.09, where projections alone left 0.13.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import numpy as np

_rng = np.random.default_rng(0)
_SQUARE = _rng.standard_normal((64, 64))
_TALL = _rng.standard_normal((4096, 4))
_HERM = _rng.standard_normal((160, 160)) + 1j * _rng.standard_normal((160, 160))
_HERM = _HERM + _HERM.conj().T
_BASIS = _rng.standard_normal((256, 2)) + 1j * _rng.standard_normal((256, 2))
_VEC = _rng.standard_normal(256) + 0j


def _projections() -> None:
    for i in range(600):
        np.random.default_rng(np.random.SeedSequence(i, spawn_key=(0, 1))).random()
        inside = _BASIS @ (_BASIS.conj().T @ _VEC)
        np.vdot(inside, inside)
        np.vdot(_VEC - inside, _VEC - inside)


def _small_dense() -> None:
    for _ in range(20):
        np.linalg.svd(_SQUARE)
        _TALL.reshape(64, 64, 4).sum(axis=1)


def _dense_eig() -> None:
    for _ in range(2):
        np.linalg.eigh(_HERM)


def _projections_and_eig() -> None:
    _projections()
    _dense_eig()


@dataclass(frozen=True)
class Kernel:
    name: str
    nominal_s: float
    work: Callable[[], None]

    def time(self) -> float:
        t0 = perf_counter()
        self.work()
        return perf_counter() - t0


#: seeded generators and projections of 256-vectors, like the measurement
#: loop, plus the dense eigensolver that every preparation runs
PROJECTIONS_AND_EIG = Kernel("projections+dense-eig", 0.037, _projections_and_eig)
#: small SVDs and reshapes of 4096-vectors, like sampling and prefix contraction
SMALL_DENSE = Kernel("small-dense", 0.022, _small_dense)
#: a threaded dense Hermitian eigensolver, like the spectral layer
DENSE_EIG = Kernel("dense-eig", 0.015, _dense_eig)
