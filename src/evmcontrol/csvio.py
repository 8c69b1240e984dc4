"""Comma-separated text output shared by the triad and grid exports.

Rows are formatted from Python scalars a block at a time: formatting numpy
rows one at a time costs about twice as much.  Columns that several files
share are formatted once per block for all of them, each file's own
columns with one ``%`` per block.
"""

from __future__ import annotations

from contextlib import ExitStack
from pathlib import Path
from typing import Sequence

import numpy as np

# Rows formatted per block.  A triad block's text is about 60 KB; blocks of
# 4096 rows wrote as fast but left about 1 MB more of the heap resident
# after a nine-pivot simulate, which raised the process's peak RSS.
BLOCK_ROWS = 1024


def write_csv(paths: Sequence[str | Path], header: str,
              columns: Sequence[tuple[str, np.ndarray]]) -> None:
    """Write ``header`` and then one line per row of ``columns`` to each of
    ``paths``.

    ``columns`` holds ``(format, values)`` pairs; ``format`` is the ``%``
    conversion of a number (``%d``, ``%.9g``), whose text holds no ``%``.
    ``values`` broadcasts to ``(len(paths), n_rows)``: a 1-D array is one
    column every file shares, a ``(len(paths), n_rows)`` array gives each
    file its own row, and a ``(len(paths), 1)`` array gives each file a
    constant, which is formatted once per file.

    The bytes of each file are those numpy's ``savetxt`` writes for its
    column-stacked rows with ``fmt=formats``, ``delimiter=","``,
    ``header=header`` and ``comments=""``: ``%d`` and ``%.9g`` give the same
    text for an int, bool or float as for the float64 that ``column_stack``
    makes of it.  Every line ends in ``\\n`` on every platform.  Each file
    holds one block of text at a time.
    """
    # A block is formatted in two passes.  The first fills the shared
    # columns of every row into a template that keeps each file's arrays as
    # conversions and its constants as numbered NUL-delimited marks; the
    # second puts in one file's constants and fills its arrays with one
    # ``%`` for the whole block.
    shared, own, constants, row = [], [], [], []
    for fmt, values in columns:
        values = np.asarray(values)
        if values.ndim == 1:
            shared.append(values)
            row.append(fmt)
        elif values.shape[1] == 1:
            row.append(f"\0{len(constants)}\0")
            constants.append([fmt % v for v in values[:, 0].tolist()])
        else:
            own.append(values)
            row.append(fmt.replace("%", "%%"))
    row = ",".join(row) + "\n"
    n_rows = np.broadcast_shapes((len(paths), 1), *(np.shape(v) for _, v in columns))[-1]
    with ExitStack() as stack:
        files = [stack.enter_context(open(path, "w", newline="\n")) for path in paths]
        for fh in files:
            fh.write(header + "\n")
        for start in range(0, n_rows, BLOCK_ROWS):
            stop = min(start + BLOCK_ROWS, n_rows)
            block = zip(*[values[start:stop].tolist() for values in shared])
            template = "".join(map(row.__mod__, block)) if shared else (row % ()) * (stop - start)
            for index, fh in enumerate(files):
                text = template
                for mark, texts in enumerate(constants):
                    text = text.replace(f"\0{mark}\0", texts[index])
                cells = [values[index, start:stop] for values in own]
                fh.write(text % tuple(np.stack(cells, axis=-1).ravel().tolist() if cells else ()))
