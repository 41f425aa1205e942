"""The matrix text format: header `q r n`, then r rows of n entries.

Entries are the base-p integer encodings of GF(q) elements, one column per
ground-set element.  Parse errors carry line and column positions.
"""

from .bitset import MAX_GROUND
from .core import LinearMatroid
from .errors import MatrixFormatError, NotPrimePower, SizeLimit
from .field import field_make


def emit_matrix(matroid: LinearMatroid) -> str:
    q = matroid.field.q
    r = matroid.nrows
    n = matroid.n
    lines = [f"{q} {r} {n}"]
    for i in range(r):
        lines.append(" ".join(str(col[i]) for col in matroid.columns))
    return "\n".join(lines) + "\n"


def parse_matrix(text: str) -> LinearMatroid:
    rows_raw = text.splitlines()
    if not rows_raw or not rows_raw[0].strip():
        raise MatrixFormatError("empty input, expected header 'q r n'", line=1)
    header = rows_raw[0].split()
    if len(header) != 3:
        raise MatrixFormatError(f"header needs 3 fields 'q r n', got {len(header)}", line=1)
    try:
        q, r, n = (int(t) for t in header)
    except ValueError:
        raise MatrixFormatError(f"non-integer header field in {header!r}", line=1)
    if r < 0 or n < 0:
        raise MatrixFormatError("negative dimensions", line=1)
    if n > MAX_GROUND:  # before n columns are built, even empty ones
        raise MatrixFormatError(f"{n} columns exceed the cap of {MAX_GROUND}", line=1)
    try:
        spec = field_make(q)
    except (NotPrimePower, SizeLimit) as exc:
        raise MatrixFormatError(str(exc), line=1)
    body = [ln for ln in rows_raw[1:] if ln.strip()]
    if len(body) != r:
        raise MatrixFormatError(f"expected {r} matrix rows, found {len(body)}",
                                line=len(rows_raw))
    rows = []
    for i, ln in enumerate(body):
        parts = ln.split()
        if len(parts) != n:
            raise MatrixFormatError(f"expected {n} entries, got {len(parts)}", line=i + 2)
        row = []
        for j, tok in enumerate(parts):
            try:
                val = int(tok)
            except ValueError:
                raise MatrixFormatError(f"entry {tok!r} is not an integer",
                                        line=i + 2, column=j + 1)
            if not 0 <= val < q:
                raise MatrixFormatError(f"entry {val} outside 0..{q - 1}",
                                        line=i + 2, column=j + 1)
            row.append(val)
        rows.append(row)
    columns = [tuple(rows[i][j] for i in range(r)) for j in range(n)]
    return LinearMatroid(spec, columns)
