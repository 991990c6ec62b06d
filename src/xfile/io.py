"""CSV ingestion, model persistence, and analysis exports.

Matrix CSV format: comma-separated cells that ``float`` reads, optionally
quoted, an optional header row, an empty field for a missing cell.  Every
matrix file, model files included, is read by :func:`_parse_rows`, whose parse
errors give a 1-based row and column, and written by :func:`save_matrix`:
``%.17g`` cells, one LF-ended line per row.  Side-information CSVs omit the
intercept column; it is prepended on load.  A fitted model is one CSV per
parameter family plus a versioned manifest ("xfile-model/1"), diff-able text.
"""

import csv
import json
import warnings
from pathlib import Path

import numpy as np

from .latent import apply_transform
from .model import (
    FactorContribution,
    FitResult,
    ObservedMatrix,
    SideInfo,
    Transform,
    loading_matrix,
    materialize,
    similarity_matrix,
)

__all__ = [
    "MatrixParseError",
    "load_matrix",
    "save_matrix",
    "load_side_info",
    "save_model",
    "load_model",
    "write_fit_outputs",
    "export_analysis",
    "write_pgm",
]

MODEL_FORMAT = "xfile-model/1"
FLOAT_FMT = "%.17g"
# The vector parameters of a contribution, in the order of the model files
# and of the columns of contributions.csv.
FAMILIES = ("u_tilde", "psi_tilde", "beta", "v_tilde", "phi_tilde", "gamma")


class MatrixParseError(ValueError):
    """CSV cell could not be parsed; carries 1-based row/column location."""


def _parse_rows(path, has_header: bool):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if has_header:
            next(reader, None)  # the header record, which may span lines
        lines = fh.readlines()
        if lines and lines[0].strip():  # loadtxt warns if every line is blank
            try:
                values = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
            except ValueError:
                pass
            else:
                if values.shape[0] == len(lines):  # loadtxt skips blank lines
                    return values, np.ones(values.shape, dtype=bool)
        del lines  # csv.reader streams the file; it alone reads empty or quoted cells
        fh.seek(0)
        rows = list(reader)[int(has_header):]
    if not any(rows):  # no rows, or blank lines only
        raise MatrixParseError(f"{path}: no data rows")
    width = len(rows[0])
    offset = 2 if has_header else 1
    values = np.full((len(rows), width), np.nan)  # an empty field stays NaN
    mask = np.ones((len(rows), width), dtype=bool)
    for i, row in enumerate(rows):
        if len(row) != width:
            raise MatrixParseError(
                f"{path}: row {i + offset} has {len(row)} fields, expected {width}"
            )
        for j, cell in enumerate(row):
            cell = cell.strip()
            if cell == "":
                mask[i, j] = False
                continue
            try:
                values[i, j] = float(cell)
            except ValueError as exc:
                raise MatrixParseError(
                    f"{path}: row {i + offset}, column {j + 1}: not a number: {cell!r}"
                ) from exc
    return values, mask


def _reject(path, has_header: bool, bad: np.ndarray, what: str) -> None:
    """Raises on the first cell of ``bad``, at its 1-based row and column."""
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise MatrixParseError(f"{path}: {what} at row {i + 1 + has_header}, column {j + 1}")


def load_matrix(path, has_header: bool = False,
                transform: Transform = Transform.IDENTITY) -> ObservedMatrix:
    """Reads a data matrix; empty fields become unobserved cells.  An observed
    cell that is not finite or, under truncation, negative is located."""
    values, mask = _parse_rows(path, has_header)
    if not mask.any():
        raise MatrixParseError(f"{path}: no observed cells")
    _reject(path, has_header, mask & ~np.isfinite(values), "non-finite value")
    if transform == Transform.NONNEG_TRUNCATION:
        _reject(path, has_header, mask & (values < 0.0), "negative value under truncation")
    return ObservedMatrix(values=values, mask=mask, transform=transform)


def save_matrix(path, values: np.ndarray, mask: np.ndarray | None = None) -> None:
    """Writes a 2-d matrix CSV, one ``%`` operation per row as ``np.savetxt`` does;
    masked-out cells are empty fields, and a row that is one empty field is
    written ``""`` (a blank line would read back as a row of no fields)."""
    values = np.asarray(values, dtype=float)
    mask = None if mask is None else np.asarray(mask, dtype=bool)
    row_fmt = ",".join([FLOAT_FMT] * values.shape[1]) + "\n"
    with open(path, "w", newline="") as fh:
        for i, row in enumerate(values):
            if mask is None or mask[i].all():
                fh.write(row_fmt % tuple(row.tolist()))
            else:
                fmt = ",".join([FLOAT_FMT if keep else "" for keep in mask[i].tolist()])
                fh.write((fmt % tuple(row[mask[i]].tolist()) or '""') + "\n")


def load_side_info(x_path, w_path, n: int, p: int, has_header: bool = False) -> SideInfo:
    """Loads covariate/metacovariate CSVs and prepends the intercept columns.

    Missing paths yield intercept-only matrices.  Missing cells are not
    allowed in side information.
    """

    def _load(path, rows, name):
        if path is None:
            return np.ones((rows, 1))
        values, mask = _parse_rows(path, has_header)
        _reject(path, has_header, ~mask, f"missing {name} value")
        if values.shape[0] != rows:
            raise MatrixParseError(f"{path}: expected {rows} rows, found {values.shape[0]}")
        return np.column_stack([np.ones(rows), values])

    return SideInfo(x=_load(x_path, n, "covariate"), w=_load(w_path, p, "metacovariate"))


# ---------------------------------------------------------------------------
# Model persistence
# ---------------------------------------------------------------------------

def _family_sizes(side: SideInfo) -> tuple:
    """Length of each family's vector, in :data:`FAMILIES` order."""
    n, p = side.x.shape[0], side.w.shape[0]
    return (n, n, side.q_x, p, p, side.q_w)


def save_model(out_dir, result: FitResult, side: SideInfo, transform: Transform,
               eps_frelu: float) -> None:
    """One CSV per parameter family plus manifest.json (format xfile-model/1)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    k = result.rank
    manifest = {
        "format": MODEL_FORMAT,
        "rank": k,
        "n": int(side.x.shape[0]),
        "p": int(side.w.shape[0]),
        "q_x": int(side.q_x),
        "q_w": int(side.q_w),
        "transform": transform.value,
        "eps_frelu": eps_frelu,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
    cs = result.contributions
    for name, size in zip(FAMILIES, _family_sizes(side)):
        # size x k, column h from contribution h
        columns = np.array([getattr(c, name) for c in cs]).reshape(k, size).T
        save_matrix(out / f"{name}.csv", columns)
    save_matrix(out / "theta.csv", np.array([[c.eta, c.rho] for c in cs]).reshape(k, 2))
    save_matrix(out / "x.csv", side.x)
    save_matrix(out / "w.csv", side.w)
    save_matrix(out / "latent_residual.csv", result.latent_residual)


def load_model(model_dir) -> tuple[FitResult, SideInfo, Transform, float]:
    """Inverse of :func:`save_model`.  Every file must have the shape that
    the manifest's ``rank``, ``n``, ``p``, ``q_x`` and ``q_w`` give it."""
    model = Path(model_dir)
    manifest = json.loads((model / "manifest.json").read_text())
    if manifest.get("format") != MODEL_FORMAT:
        raise ValueError(f"unsupported model format {manifest.get('format')!r}")
    try:
        k, n, p, q_x, q_w = (int(manifest[key]) for key in ("rank", "n", "p", "q_x", "q_w"))
    except KeyError as exc:
        raise ValueError(f"{model / 'manifest.json'}: no {exc} entry") from exc

    def _read(name, shape):
        values, mask = _parse_rows(model / name, False)
        _reject(model / name, False, ~mask, "missing value")
        if values.shape != shape:
            raise ValueError(f"{model / name}: shape {values.shape} does not match {shape} "
                             f"from manifest.json")
        return values

    side = SideInfo(x=_read("x.csv", (n, q_x)), w=_read("w.csv", (p, q_w)))
    contributions = ()
    if k:  # a rank-0 model has empty family files
        columns = {name: _read(f"{name}.csv", (size, k))
                   for name, size in zip(FAMILIES, _family_sizes(side))}
        theta = _read("theta.csv", (k, 2))
        bad = np.flatnonzero((theta[:, 1] != 0.0) & (theta[:, 1] != 1.0))
        if bad.size:
            raise ValueError(f"{model / 'theta.csv'}: rho {theta[bad[0], 1]:g} of factor "
                             f"{bad[0] + 1} is not 0 or 1")
        contributions = tuple(
            FactorContribution(**{name: a[:, h] for name, a in columns.items()},
                               eta=float(theta[h, 0]), rho=int(theta[h, 1]))
            for h in range(k)
        )
    residual = _read("latent_residual.csv", (n, p))
    result = FitResult(
        contributions=contributions,
        logpost_trace=np.empty(0),
        trace_factors=np.empty(0, dtype=int),
        latent_residual=residual,
    )
    return result, side, Transform(manifest["transform"]), float(manifest["eps_frelu"])


def write_fit_outputs(out_dir, result: FitResult, side: SideInfo, transform: Transform,
                      eps_frelu: float) -> None:
    """Flat fit artifacts: contributions.csv, rank.txt, logpost_trace.csv,
    fitted values (latent and, for truncated data, observation-scale)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "rank.txt").write_text(f"{result.rank}\n")

    with open(out / "contributions.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["eta", "rho"] + [
            f"{name}_{i}" for name, size in zip(FAMILIES, _family_sizes(side)) for i in range(size)
        ])
        for c in result.contributions:
            row = [FLOAT_FMT % c.eta, c.rho]
            for name in FAMILIES:
                row.extend(FLOAT_FMT % x for x in getattr(c, name))
            writer.writerow(row)

    with open(out / "logpost_trace.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["factor", "inner_iteration", "logpost"])
        counts: dict[int, int] = {}
        for fid, val in zip(result.trace_factors, result.logpost_trace):
            t = counts.get(int(fid), 0)
            counts[int(fid)] = t + 1
            writer.writerow([int(fid), t, FLOAT_FMT % val])

    latent_fit = materialize(result.contributions, side, eps_frelu)
    if transform == Transform.NONNEG_TRUNCATION:
        save_matrix(out / "fitted_latent.csv", latent_fit)
        save_matrix(out / "fitted_observed.csv", apply_transform(latent_fit, transform))
    else:
        save_matrix(out / "fitted.csv", latent_fit)


# ---------------------------------------------------------------------------
# Analysis exports
# ---------------------------------------------------------------------------

def write_pgm(path, values: np.ndarray) -> dict:
    """Binary (P5) grayscale image, linearly rescaled to 0..255.

    Returns the scaling metadata written to the sidecar JSON.
    """
    values = np.asarray(values, dtype=float)
    lo, hi = float(values.min()), float(values.max())
    if hi > lo:
        scaled = np.round((values - lo) / (hi - lo) * 255.0).astype(np.uint8)
    else:
        scaled = np.zeros(values.shape, dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{values.shape[1]} {values.shape[0]}\n255\n".encode("ascii"))
        fh.write(scaled.tobytes())
    return {"min": lo, "max": hi, "rows": values.shape[0], "cols": values.shape[1]}


def export_analysis(
    result: FitResult,
    side: SideInfo,
    out_dir,
    eps_frelu: float = 0.0,
    grid_rows: int | None = None,
    grid_cols: int | None = None,
    squared_scale: bool = False,
) -> None:
    """Interpretation exports of a fitted model.

    Writes archetypes.csv (columns phi_h * v_h), loading_signs.csv (signs of
    the effective row loadings, entries in {-1, 0, 1}), similarity.csv (the
    Gaussian-kernel row-similarity matrix) and, when a grid shape is given,
    one archetype_<h>.pgm map per factor with a JSON sidecar recording the
    rescaling.  A grid shape that does not tile the columns is rejected
    before anything is written, and so is a model with an inactive factor
    (see :func:`similarity_matrix`).  A rank-0 model produces empty-schema
    files and a warning.
    """
    p = side.w.shape[0]
    if (grid_rows is None) != (grid_cols is None) or (grid_rows is not None and (
            min(grid_rows, grid_cols) < 1 or grid_rows * grid_cols != p)):
        raise ValueError(f"grid {grid_rows}x{grid_cols} does not tile {p} column cells")
    k = result.rank
    similarity = similarity_matrix(result, side, eps_frelu, squared_scale) if k else None
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if k == 0:
        warnings.warn("rank-0 model: writing empty analysis files", UserWarning)
        (out / "archetypes.csv").write_text("")
        (out / "loading_signs.csv").write_text("")
        (out / "similarity.csv").write_text("")
        return
    archetypes = np.column_stack([c.phi_tilde * c.v_tilde for c in result.contributions])
    save_matrix(out / "archetypes.csv", archetypes)
    signs = np.sign(loading_matrix(result, side, eps_frelu))
    save_matrix(out / "loading_signs.csv", signs)
    save_matrix(out / "similarity.csv", similarity)
    if grid_rows is None:
        warnings.warn("no grid shape given: skipping PGM archetype maps", UserWarning)
        return
    for h in range(k):
        image = archetypes[:, h].reshape(grid_rows, grid_cols)
        meta = write_pgm(out / f"archetype_{h + 1}.pgm", image)
        (out / f"archetype_{h + 1}.json").write_text(json.dumps(meta, indent=2))
