"""Dataset container and the two experiment datasets.

The boolean generator draws 10 i.i.d. uniform binary features and labels a
row positive when (v1 and v3) or (v2 and not v3) holds; v4..v10 are pure
noise. The titanic loader turns the standard Kaggle train csv into the
seven ordinal features [Age, Gender, Pclass, Fare, Embarked, Title, IsAlone]
with the target taken from the Survived column.
"""

from __future__ import annotations

import csv
import re
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InputError, SchemaError

__all__ = [
    "Dataset",
    "gen_boolean",
    "load_titanic",
    "split",
    "dataset_to_csv",
    "read_dataset_csv",
    "TITANIC_FEATURE_NAMES",
]

BOOLEAN_FEATURE_NAMES = tuple(f"v{i}" for i in range(1, 11))
TITANIC_FEATURE_NAMES = ("Age", "Gender", "Pclass", "Fare", "Embarked", "Title", "IsAlone")

# Kaggle train.csv columns the pipeline actually consumes.
_TITANIC_REQUIRED = ("Survived", "Pclass", "Name", "Sex", "Age", "SibSp", "Parch", "Fare", "Embarked")

_TITLE_RE = re.compile(r" ([A-Za-z]+)\.")
_TITLE_SYNONYMS = {"Mlle": "Miss", "Ms": "Miss", "Mme": "Mrs"}
_TITLE_CODES = {"Mr": 1, "Miss": 2, "Mrs": 3, "Master": 4}
_RARE_TITLE_CODE = 5
_EMBARKED_CODES = {"S": 0, "C": 1, "Q": 2}


@dataclass(frozen=True, eq=False)
class Dataset:
    """A named-feature matrix with binary targets."""

    features: np.ndarray
    targets: np.ndarray
    feature_names: tuple[str, ...]
    provenance: str = ""

    def __post_init__(self):
        X = np.array(self.features, dtype=np.float64)
        t = np.array(self.targets, dtype=np.int64)
        if X.ndim != 2 or X.shape[0] < 1:
            raise InputError(f"features must be a non-empty matrix, got shape {X.shape}")
        if t.shape != (X.shape[0],):
            raise InputError(f"targets shape {t.shape} does not match {X.shape[0]} rows")
        if not np.all(np.isfinite(X)):
            raise InputError("features must be finite")
        if not np.all((t == 0) | (t == 1)):
            raise InputError("targets must be 0 or 1")
        names = tuple(str(n) for n in self.feature_names)
        if len(names) != X.shape[1]:
            raise InputError(
                f"{len(names)} feature names for {X.shape[1]} feature columns"
            )
        X.setflags(write=False)
        t.setflags(write=False)
        object.__setattr__(self, "features", X)
        object.__setattr__(self, "targets", t)
        object.__setattr__(self, "feature_names", names)

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def take(self, indices: np.ndarray, provenance: str | None = None) -> "Dataset":
        """Row subset (or reordering) as a new dataset."""
        return Dataset(
            features=self.features[indices],
            targets=self.targets[indices],
            feature_names=self.feature_names,
            provenance=self.provenance if provenance is None else provenance,
        )


def boolean_target(v1, v2, v3) -> np.ndarray:
    """Label rule of the simulation: (v1 and v3) or (v2 and not v3)."""
    v1 = np.asarray(v1, dtype=bool)
    v2 = np.asarray(v2, dtype=bool)
    v3 = np.asarray(v3, dtype=bool)
    return ((v1 & v3) | (v2 & ~v3)).astype(np.int64)


def gen_boolean(n: int = 100_000, seed: int = 0) -> Dataset:
    """Simulated dataset: 10 uniform {0,1} features, 3 informative, 7 noise."""
    if n < 1:
        raise InputError(f"n must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 2, size=(n, 10)).astype(np.float64)
    t = boolean_target(X[:, 0], X[:, 1], X[:, 2])
    return Dataset(
        features=X,
        targets=t,
        feature_names=BOOLEAN_FEATURE_NAMES,
        provenance=f"boolean-sim(n={n}, seed={seed})",
    )


def _parse_optional_float(text: str, column: str, line_num: int) -> float | None:
    text = text.strip()
    if text == "":
        return None
    try:
        return float(text)
    except ValueError:
        raise SchemaError(f"line {line_num}: cannot parse {column}={text!r} as a number")


def _parse_int(text: str, column: str, line_num: int) -> int:
    try:
        return int(text.strip())
    except ValueError:
        raise SchemaError(f"line {line_num}: cannot parse {column}={text!r} as an integer")


def _title_code(name: str) -> int:
    m = _TITLE_RE.search(name)
    if not m:
        return _RARE_TITLE_CODE
    title = _TITLE_SYNONYMS.get(m.group(1), m.group(1))
    return _TITLE_CODES.get(title, _RARE_TITLE_CODE)


def _equal_width_bins(values: np.ndarray, n_bins: int) -> np.ndarray:
    """Ordinal codes 0..n_bins-1 over equal-width bands spanning [min, max].

    Bands are right-closed, matching the usual cut convention: a value equal
    to an interior edge falls in the lower band.
    """
    lo, hi = float(values.min()), float(values.max())
    if hi == lo:
        return np.zeros(len(values), dtype=np.int64)
    edges = np.linspace(lo, hi, n_bins + 1)[1:-1]
    return np.searchsorted(edges, values, side="left").astype(np.int64)


def _quantile_bins(values: np.ndarray, n_bins: int) -> np.ndarray:
    """Ordinal codes 0..n_bins-1 by quantile bands (right-closed)."""
    qs = np.quantile(values, np.linspace(0, 1, n_bins + 1)[1:-1])
    return np.searchsorted(qs, values, side="left").astype(np.int64)


@contextmanager
def _decoding(path: Path):
    """Turn a byte that the text codec cannot decode into a SchemaError naming the file."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise SchemaError(f"cannot decode {path}: {exc}") from exc


def load_titanic(csv_path, age_bins: int = 5, fare_bins: int = 4) -> Dataset:
    """Build the seven-feature ordinal dataset from a Kaggle-format train csv.

    Per-column treatment (bin counts overridable):
      Age      group-median imputation by (Gender, Pclass), then 5 equal-width
               bands coded 0-4
      Gender   1 if female else 0
      Pclass   kept as-is (1, 2, 3)
      Fare     overall-median imputation, then 4 quantile bands coded 0-3
      Embarked S->0, C->1, Q->2 with mode imputation
      Title    parsed from Name: Mr 1, Miss 2 (incl. Mlle/Ms), Mrs 3 (incl.
               Mme), Master 4, anything else 5
      IsAlone  1 iff SibSp + Parch == 0
    """
    if age_bins < 1 or fare_bins < 1:
        raise InputError("bin counts must be >= 1")
    path = Path(csv_path)
    rows: list[dict] = []
    with path.open(newline="") as fh, _decoding(path):
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        for column in _TITANIC_REQUIRED:
            if column not in header:
                raise SchemaError(f"missing required column: {column}")
        for rec in reader:
            line = reader.line_num
            if any(rec.get(c) is None for c in _TITANIC_REQUIRED):
                raise SchemaError(f"line {line}: truncated row")
            survived = _parse_int(rec["Survived"], "Survived", line)
            if survived not in (0, 1):
                raise SchemaError(f"line {line}: Survived must be 0 or 1, got {survived}")
            sex = rec["Sex"].strip().lower()
            if sex not in ("male", "female"):
                raise SchemaError(f"line {line}: unknown Sex value {rec['Sex']!r}")
            embarked = rec["Embarked"].strip().upper()
            if embarked not in ("", "S", "C", "Q"):
                raise SchemaError(f"line {line}: unknown Embarked value {rec['Embarked']!r}")
            rows.append(
                {
                    "survived": survived,
                    "pclass": _parse_int(rec["Pclass"], "Pclass", line),
                    "gender": 1 if sex == "female" else 0,
                    "age": _parse_optional_float(rec["Age"], "Age", line),
                    "sibsp": _parse_int(rec["SibSp"], "SibSp", line),
                    "parch": _parse_int(rec["Parch"], "Parch", line),
                    "fare": _parse_optional_float(rec["Fare"], "Fare", line),
                    "embarked": embarked or None,
                    "title": _title_code(rec["Name"]),
                }
            )
    if not rows:
        raise SchemaError(f"{path} contains no data rows")

    n = len(rows)
    gender = np.array([r["gender"] for r in rows], dtype=np.int64)
    pclass = np.array([r["pclass"] for r in rows], dtype=np.int64)

    # Age: median within each (gender, pclass) group, overall median as fallback.
    ages = np.array([np.nan if r["age"] is None else r["age"] for r in rows])
    observed = ~np.isnan(ages)
    if not observed.any():
        raise SchemaError("Age column has no observed values to impute from")
    overall_age = float(np.median(ages[observed]))
    imputed_age = ages.copy()
    for g in np.unique(gender):
        for c in np.unique(pclass):
            cell = (gender == g) & (pclass == c)
            seen = cell & observed
            fill = float(np.median(ages[seen])) if seen.any() else overall_age
            imputed_age[cell & ~observed] = fill
    age_code = _equal_width_bins(imputed_age, age_bins)

    fares = np.array([np.nan if r["fare"] is None else r["fare"] for r in rows])
    fare_seen = ~np.isnan(fares)
    if not fare_seen.any():
        raise SchemaError("Fare column has no observed values to impute from")
    fares[~fare_seen] = float(np.median(fares[fare_seen]))
    fare_code = _quantile_bins(fares, fare_bins)

    ports = [r["embarked"] for r in rows]
    known_ports = [p for p in ports if p is not None]
    if not known_ports:
        raise SchemaError("Embarked column has no observed values to impute from")
    counts = Counter(known_ports)
    mode_port = sorted(counts, key=lambda p: (-counts[p], p))[0]
    embarked_code = np.array(
        [_EMBARKED_CODES[p if p is not None else mode_port] for p in ports], dtype=np.int64
    )

    title = np.array([r["title"] for r in rows], dtype=np.int64)
    is_alone = np.array(
        [1 if r["sibsp"] + r["parch"] == 0 else 0 for r in rows], dtype=np.int64
    )
    features = np.column_stack(
        [age_code, gender, pclass, fare_code, embarked_code, title, is_alone]
    ).astype(np.float64)
    targets = np.array([r["survived"] for r in rows], dtype=np.int64)
    return Dataset(
        features=features,
        targets=targets,
        feature_names=TITANIC_FEATURE_NAMES,
        provenance=f"titanic({path.name}, rows={n})",
    )


def split(dataset: Dataset, fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Seeded shuffle, then cut: the first part gets round(n * fraction) rows."""
    if not 0.0 < fraction < 1.0:
        raise InputError(f"fraction must be in (0, 1), got {fraction}")
    n = dataset.n_rows
    n_first = int(round(n * fraction))
    if n_first == 0 or n_first == n:
        raise InputError(
            f"fraction {fraction} makes an empty part out of {n} rows"
        )
    perm = np.random.default_rng(seed).permutation(n)
    first = dataset.take(np.sort(perm[:n_first]), f"{dataset.provenance}|split[:{n_first}]")
    second = dataset.take(np.sort(perm[n_first:]), f"{dataset.provenance}|split[{n_first}:]")
    return first, second


_CSV_BLOCK_ROWS = 1024


def dataset_to_csv(dataset: Dataset) -> str:
    """Comma-separated export: feature columns then a final ``target`` column."""
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(list(dataset.feature_names) + ["target"])
    # tolist() gives the Python floats and ints the csv module writes; a block
    # at a time, so the Python copy of the rows stays small. Each block's text
    # becomes one string and the buffer is emptied, so the one large string
    # is the join.
    blocks = []
    for start in range(0, dataset.n_rows, _CSV_BLOCK_ROWS):
        stop = start + _CSV_BLOCK_ROWS
        writer.writerows(
            x + [t]
            for x, t in zip(
                dataset.features[start:stop].tolist(), dataset.targets[start:stop].tolist()
            )
        )
        blocks.append(buf.getvalue())
        buf.seek(0)
        buf.truncate()
    return "".join(blocks)


def read_dataset_csv(path) -> Dataset:
    """Load a dataset written by ``dataset_to_csv``."""
    path = Path(path)
    with path.open(newline="") as fh, _decoding(path):
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path} is empty")
        if len(header) < 2 or header[-1] != "target":
            raise SchemaError(
                f'{path}: expected feature columns followed by a "target" column'
            )
        # Rows are parsed a block at a time into arrays, so the Python floats
        # of only one block are alive at once.
        feature_blocks, target_blocks = [], []
        features, targets = [], []
        for row in reader:
            line = reader.line_num
            if len(row) != len(header):
                raise SchemaError(f"line {line}: expected {len(header)} fields, got {len(row)}")
            try:
                features.append([float(v) for v in row[:-1]])
            except ValueError as exc:
                raise SchemaError(f"line {line}: {exc}")
            t = row[-1].strip()
            if t not in ("0", "1"):
                raise SchemaError(f"line {line}: target must be 0 or 1, got {t!r}")
            targets.append(int(t))
            if len(targets) == _CSV_BLOCK_ROWS:
                feature_blocks.append(np.array(features))
                target_blocks.append(np.array(targets))
                features, targets = [], []
    if features:
        feature_blocks.append(np.array(features))
        target_blocks.append(np.array(targets))
    if not feature_blocks:
        raise SchemaError(f"{path} contains no data rows")
    targets = np.concatenate(target_blocks)
    return Dataset(
        features=np.concatenate(feature_blocks),
        targets=targets,
        feature_names=tuple(header[:-1]),
        provenance=f"csv({path.name}, rows={targets.shape[0]})",
    )
