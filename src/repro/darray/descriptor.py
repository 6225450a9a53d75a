"""Array descriptors for 2-D block-cyclic layouts."""

from __future__ import annotations

from dataclasses import dataclass

from repro.blacs.grid import ProcessGrid
from repro.darray.blockcyclic import block_owner, numroc


@dataclass(frozen=True)
class Descriptor:
    """How a global ``m x n`` array is spread over a ``pr x pc`` grid.

    Mirrors a ScaLAPACK array descriptor: block sizes ``mb x nb``, first
    block at grid position ``(rsrc, csrc)``.  The descriptor is pure
    arithmetic — storage lives in :class:`~repro.darray.DistributedMatrix`.
    """

    m: int
    n: int
    mb: int
    nb: int
    grid: ProcessGrid
    rsrc: int = 0
    csrc: int = 0
    itemsize: int = 8  # float64

    def __post_init__(self):
        if self.m < 0 or self.n < 0:
            raise ValueError("negative global extent")
        if self.mb < 1 or self.nb < 1:
            raise ValueError("block sizes must be positive")
        if not (0 <= self.rsrc < self.grid.pr and
                0 <= self.csrc < self.grid.pc):
            raise ValueError("source process outside grid")

    # -- local extents ------------------------------------------------------
    def local_shape(self, prow: int, pcol: int) -> tuple[int, int]:
        """Local array shape on grid process ``(prow, pcol)``."""
        lm = numroc(self.m, self.mb, prow, self.rsrc, self.grid.pr)
        ln = numroc(self.n, self.nb, pcol, self.csrc, self.grid.pc)
        return lm, ln

    def local_shape_of_rank(self, rank: int) -> tuple[int, int]:
        return self.local_shape(*self.grid.coords(rank))

    def local_nbytes(self, prow: int, pcol: int) -> int:
        lm, ln = self.local_shape(prow, pcol)
        return lm * ln * self.itemsize

    @property
    def global_nbytes(self) -> int:
        return self.m * self.n * self.itemsize

    # -- block arithmetic -----------------------------------------------------
    @property
    def row_blocks(self) -> int:
        """Number of global row-blocks."""
        return (self.m + self.mb - 1) // self.mb

    @property
    def col_blocks(self) -> int:
        """Number of global column-blocks."""
        return (self.n + self.nb - 1) // self.nb

    def owner_of_block(self, brow: int, bcol: int) -> tuple[int, int]:
        """Grid coords of the process owning global block ``(brow, bcol)``."""
        return (block_owner(brow, self.rsrc, self.grid.pr),
                block_owner(bcol, self.csrc, self.grid.pc))

    def owner_of_element(self, i: int, j: int) -> tuple[int, int]:
        """Grid coords of the process owning global element ``(i, j)``."""
        return self.owner_of_block(i // self.mb, j // self.nb)

    def with_grid(self, grid: ProcessGrid) -> "Descriptor":
        """Same global array and blocking, different process grid."""
        return Descriptor(m=self.m, n=self.n, mb=self.mb, nb=self.nb,
                          grid=grid, rsrc=0, csrc=0,
                          itemsize=self.itemsize)

    def __repr__(self) -> str:
        return (f"Descriptor({self.m}x{self.n}, blocks {self.mb}x{self.nb}, "
                f"grid {self.grid.pr}x{self.grid.pc})")
