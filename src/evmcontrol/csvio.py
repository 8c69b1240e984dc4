"""Comma-separated text output shared by the triad and grid exports.

Rows are formatted from Python scalars a block at a time, one ``%`` per
row: formatting numpy rows one at a time costs about twice as much.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

import numpy as np

# Rows formatted per block.  A triad block's text is about 60 KB; blocks of
# 4096 rows wrote as fast but left about 1 MB more of the heap resident
# after a nine-pivot simulate, which raised the process's peak RSS.
BLOCK_ROWS = 1024


def write_csv(path: str | Path, header: str, columns: Sequence[tuple[str, object]]) -> None:
    """Write ``header`` and then one line per row of ``columns``.

    ``columns`` holds ``(format, values)`` pairs: ``values`` is a 1-D array
    formatted with the ``%`` conversion ``format``, or a scalar that is
    formatted once and repeated on every row.  The array columns share one
    length.

    The bytes are those numpy's ``savetxt`` writes for the column-stacked
    arrays, with the scalars broadcast, ``fmt=formats``, ``delimiter=","``,
    ``header=header`` and ``comments=""``: ``%d`` and ``%.9g`` give the same
    text for an int, bool or float as for the float64 that ``column_stack``
    makes of it.  Every line ends in ``\\n`` on every platform.
    """
    formats, arrays = [], []
    for fmt, values in columns:
        if np.ndim(values) == 0:
            formats.append((fmt % values).replace("%", "%%"))
        else:
            formats.append(fmt)
            arrays.append(np.asarray(values))
    row = ",".join(formats) + "\n"
    n_rows = len(arrays[0]) if arrays else 0
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        for start in range(0, n_rows, BLOCK_ROWS):
            block = zip(*[values[start:start + BLOCK_ROWS].tolist() for values in arrays])
            fh.write("".join(map(row.__mod__, block)))
