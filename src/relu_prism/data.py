"""Dataset container and the two experiment datasets.

The boolean generator draws 10 i.i.d. uniform binary features and labels a
row positive when (v1 and v3) or (v2 and not v3) holds; v4..v10 are pure
noise. The titanic loader turns the standard Kaggle train csv into the
seven ordinal features [Age, Gender, Pclass, Fare, Embarked, Title, IsAlone]
with the target taken from the Survived column.
"""

from __future__ import annotations

import csv
import io
import math
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
    "parse_titanic_csv",
    "split",
    "dataset_to_csv",
    "read_dataset_csv",
    "parse_dataset_csv",
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
_AGE_BINS, _FARE_BINS = 5, 4
# Rows per block where rows are generated, written or compacted a block at a time.
_CSV_BLOCK_ROWS = 1024


@dataclass(frozen=True, eq=False)
class Dataset:
    """A named-feature matrix with binary targets.

    The features are kept as a read-only, C-ordered float64 copy, and the
    targets as a read-only int64 copy. A matrix without rows or without
    feature columns is refused. A pickled dataset comes back read-only.
    """

    features: np.ndarray
    targets: np.ndarray
    feature_names: tuple[str, ...]

    def __post_init__(self):
        # The targets are copied as given: their dtype is checked before the
        # int64 conversion, which would truncate 0.7 to 0 and parse "1".
        self._hold(
            np.array(self.features, dtype=np.float64, order="C"),
            np.array(self.targets),
            self.feature_names,
        )

    @classmethod
    def _adopt(cls, features: np.ndarray, targets: np.ndarray, feature_names) -> "Dataset":
        """A dataset that holds the arrays it is given, uncopied.

        For arrays that the caller has just built and does not keep: a
        C-ordered float64 matrix and a vector of targets. They are checked as
        the public constructor checks its copies, and made read-only.
        """
        dataset = object.__new__(cls)
        dataset._hold(features, targets, feature_names)
        return dataset

    def _hold(self, X: np.ndarray, t: np.ndarray, feature_names) -> None:
        """Check ``X``, ``t`` and the names as one dataset, then keep them read-only.

        ``X`` is a C-ordered float64 array. A non-finite value is found by
        ``min`` and ``max``, which propagate NaN and make no temporary array.
        """
        if X.ndim != 2 or 0 in X.shape:
            raise InputError(
                f"features must be a matrix of at least one row and one column, got shape {X.shape}"
            )
        if t.shape != (X.shape[0],):
            raise InputError(f"targets shape {t.shape} does not match {X.shape[0]} rows")
        if not (math.isfinite(X.min()) and math.isfinite(X.max())):
            raise InputError("features must be finite")
        if t.dtype.kind not in "biuf" or not np.all((t == 0) | (t == 1)):
            raise InputError("targets must be 0 or 1")
        t = t.astype(np.int64, copy=False)
        names = tuple(str(n) for n in feature_names)
        if len(names) != X.shape[1]:
            raise InputError(
                f"{len(names)} feature names for {X.shape[1]} feature columns"
            )
        X.setflags(write=False)
        t.setflags(write=False)
        object.__setattr__(self, "features", X)
        object.__setattr__(self, "targets", t)
        object.__setattr__(self, "feature_names", names)

    def __reduce__(self):
        # Unpickled arrays are new and writeable; adopting them makes them read-only.
        return Dataset._adopt, (self.features, self.targets, self.feature_names)

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def take(self, indices: np.ndarray) -> "Dataset":
        """Row subset (or reordering) as a new dataset."""
        return Dataset(
            features=self.features[indices],
            targets=self.targets[indices],
            feature_names=self.feature_names,
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
    # Drawn a block of rows at a time into the float matrix: the generator
    # fills in row order, so the draws are those of one (n, 10) call, and
    # only a block of them is held as int64.
    X = np.empty((n, 10))
    for start in range(0, n, _CSV_BLOCK_ROWS):
        rows = min(_CSV_BLOCK_ROWS, n - start)
        X[start : start + rows] = rng.integers(0, 2, size=(rows, 10))
    t = boolean_target(X[:, 0], X[:, 1], X[:, 2])
    return Dataset._adopt(X, t, BOOLEAN_FEATURE_NAMES)


def _parse_optional_float(text: str, column: str, line_num: int) -> float | None:
    text = text.strip()
    if text == "":
        return None
    try:
        value = float(text)
    except ValueError:
        raise SchemaError(f"line {line_num}: cannot parse {column}={text!r} as a number")
    if not math.isfinite(value):
        raise SchemaError(f"line {line_num}: {column}={text!r} is not a finite number")
    return value


def _parse_int(text: str, column: str, line_num: int) -> int:
    try:
        return int(text.strip())
    except ValueError:
        raise SchemaError(f"line {line_num}: cannot parse {column}={text!r} as an integer")


def _non_negative(value, column: str, line_num: int):
    """``value``, a count or a measure, or None for a missing one; a negative one is refused."""
    if value is not None and value < 0:
        raise SchemaError(f"line {line_num}: {column} must be >= 0, got {value}")
    return value


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


def _text(raw: bytes) -> io.TextIOWrapper:
    """``raw`` as the text stream that opening its file with ``newline=""`` gives."""
    return io.TextIOWrapper(io.BytesIO(raw), newline="")


def load_titanic(csv_path) -> Dataset:
    """Build the seven-feature ordinal dataset from a Kaggle-format train csv.

    See ``parse_titanic_csv``, which builds it from the file's bytes.
    """
    path = Path(csv_path)
    return parse_titanic_csv(path.read_bytes(), path)


def parse_titanic_csv(raw: bytes, path) -> Dataset:
    """The seven-feature ordinal dataset of the Kaggle-format train csv bytes ``raw``.

    ``path`` names the file in messages.

    Per-column treatment:
      Age      group-median imputation by (Gender, Pclass), then 5 equal-width
               bands coded 0-4
      Gender   1 if female else 0
      Pclass   kept as-is; a value other than 1, 2 or 3 is refused
      Fare     overall-median imputation, then 4 quantile bands coded 0-3
      Embarked S->0, C->1, Q->2 with mode imputation
      Title    parsed from Name: Mr 1, Miss 2 (incl. Mlle/Ms), Mrs 3 (incl.
               Mme), Master 4, anything else 5
      IsAlone  1 iff SibSp + Parch == 0
    """
    path = Path(path)
    # One list per column, filled as rows are parsed; a missing Age or Fare is None (NaN).
    survived, pclass, gender, ages, fares, ports, title, is_alone = ([] for _ in range(8))
    with _text(raw) as text, _decoding(path):
        reader = csv.DictReader(text)
        header = reader.fieldnames or []
        for column in _TITANIC_REQUIRED:
            if column not in header:
                raise SchemaError(f"missing required column: {column}")
        for rec in reader:
            line = reader.line_num
            if any(rec.get(c) is None for c in _TITANIC_REQUIRED):
                raise SchemaError(f"line {line}: truncated row")
            target = _parse_int(rec["Survived"], "Survived", line)
            if target not in (0, 1):
                raise SchemaError(f"line {line}: Survived must be 0 or 1, got {target}")
            sex = rec["Sex"].strip().lower()
            if sex not in ("male", "female"):
                raise SchemaError(f"line {line}: unknown Sex value {rec['Sex']!r}")
            port = rec["Embarked"].strip().upper()
            if port not in ("", "S", "C", "Q"):
                raise SchemaError(f"line {line}: unknown Embarked value {rec['Embarked']!r}")
            klass = _parse_int(rec["Pclass"], "Pclass", line)
            if klass not in (1, 2, 3):
                raise SchemaError(f"line {line}: Pclass must be 1, 2 or 3, got {klass}")
            age = _parse_optional_float(rec["Age"], "Age", line)
            ages.append(_non_negative(age, "Age", line))
            sibsp = _non_negative(_parse_int(rec["SibSp"], "SibSp", line), "SibSp", line)
            parch = _non_negative(_parse_int(rec["Parch"], "Parch", line), "Parch", line)
            is_alone.append(sibsp + parch == 0)
            fare = _parse_optional_float(rec["Fare"], "Fare", line)
            fares.append(_non_negative(fare, "Fare", line))
            survived.append(target)
            pclass.append(klass)
            gender.append(sex == "female")
            ports.append(port)
            title.append(_title_code(rec["Name"]))
    if not survived:
        raise SchemaError(f"{path} contains no data rows")

    # Age: median within each (gender, pclass) cell, overall median as fallback.
    gender = np.array(gender, dtype=np.int64)
    pclass = np.array(pclass, dtype=np.int64)
    ages = np.array(ages, dtype=np.float64)
    observed = ~np.isnan(ages)
    if not observed.any():
        raise SchemaError("Age column has no observed values to impute from")
    overall_age = float(np.median(ages[observed]))
    for g in (0, 1):
        for c in (1, 2, 3):
            cell = (gender == g) & (pclass == c)
            seen = cell & observed
            # Only missing ages are filled, so later medians read observed ones alone.
            ages[cell & ~observed] = float(np.median(ages[seen])) if seen.any() else overall_age

    fares = np.array(fares, dtype=np.float64)
    fare_seen = ~np.isnan(fares)
    if not fare_seen.any():
        raise SchemaError("Fare column has no observed values to impute from")
    fares[~fare_seen] = float(np.median(fares[fare_seen]))

    counts = Counter(filter(None, ports))
    if not counts:
        raise SchemaError("Embarked column has no observed values to impute from")
    mode_port = min(counts, key=lambda p: (-counts[p], p))
    embarked = [_EMBARKED_CODES[p or mode_port] for p in ports]

    columns = [_equal_width_bins(ages, _AGE_BINS), gender, pclass,
               _quantile_bins(fares, _FARE_BINS), embarked, title, is_alone]
    features = np.stack(columns, axis=1, dtype=np.float64)
    return Dataset._adopt(features, np.array(survived, dtype=np.int64), TITANIC_FEATURE_NAMES)


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
    first = dataset.take(np.sort(perm[:n_first]))
    second = dataset.take(np.sort(perm[n_first:]))
    return first, second


def dataset_to_csv(dataset: Dataset) -> str:
    """Comma-separated export: feature columns then a final ``target`` column.

    The bytes are those of ``csv.writer``: the header through it, and each
    row as the ``repr`` of its floats and its 0/1 target, which never need
    quoting. The text is the join of ``_csv_blocks``.
    """
    return "".join(_csv_blocks(dataset))


def _write_dataset_csv(dataset: Dataset, path) -> None:
    """Write ``dataset_to_csv(dataset)`` to ``path`` a block at a time, as ``write_text`` would."""
    with Path(path).open("w") as out:
        out.writelines(_csv_blocks(dataset))


def _csv_blocks(dataset: Dataset):
    """The text of ``dataset_to_csv`` in pieces: the header, then each block of rows."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([*dataset.feature_names, "target"])
    yield buf.getvalue()
    # A block of rows is each row's feature reprs and its 0/1 target joined
    # by commas: zip takes d reprs off one iterator, then the row's end, so
    # no Python list is made per row. A block of one-digit features, as both
    # experiments' tables are, is written as a digit table instead, with the
    # same bytes.
    n, d = dataset.features.shape
    block = np.empty((_CSV_BLOCK_ROWS, d + 1))
    for start in range(0, n, _CSV_BLOCK_ROWS):
        rows = min(_CSV_BLOCK_ROWS, n - start)
        features = dataset.features[start : start + rows]
        targets = dataset.targets[start : start + rows]
        if _all_digits(features):
            block[:rows, :d] = features
            block[:rows, d] = targets
            yield _digit_rows(block[:rows])
        else:
            cells = map(repr, features.ravel().tolist())
            ends = map(_ROW_ENDS.__getitem__, targets.tolist())
            yield "".join(map(",".join, zip(*[cells] * d, ends)))


# A csv row's last field and line end, by its 0/1 target.
_ROW_ENDS = ("0\n", "1\n")


def _all_digits(values: np.ndarray) -> bool:
    """Whether every value is one of 0.0 .. 9.0, whose ``repr`` is "k.0".

    -0.0 equals 0.0, but its ``repr`` is "-0.0": its sign bit rules it out.
    The range is tested first, by two reductions that make no array, so a
    block of other values costs no temporaries.
    """
    return bool(
        values.min(initial=0.0) >= 0.0
        and values.max(initial=0.0) <= 9.0
        and (values == np.trunc(values)).all()
        and not np.signbit(values).any()
    )


def _digit_rows(block: np.ndarray) -> str:
    """The csv rows of ``block``, features then the target, each value one digit.

    A row is "k.0," per feature and "t\\n": one row template, repeated in a
    uint8 table with each row's digits added in, then decoded once.
    """
    rows, cols = block.shape
    width = 4 * cols - 2
    table = np.empty((rows, width), dtype=np.uint8)
    table[:] = np.frombuffer(b"0.0," * (cols - 1) + b"0\n", dtype=np.uint8)
    table[:, 0:width:4] += block.astype(np.uint8)
    return table.tobytes().decode("ascii")


def read_dataset_csv(path) -> Dataset:
    """Load a dataset written by ``dataset_to_csv``."""
    path = Path(path)
    return parse_dataset_csv(path.read_bytes(), path)


def parse_dataset_csv(raw: bytes, path) -> Dataset:
    """The dataset in the csv bytes ``raw``; ``path`` names them in messages.

    The layout ``dataset_to_csv`` writes is parsed in one ``np.loadtxt`` call.
    Any other input goes to the line parser, which accepts it or names its bad
    line, so both give the same dataset or the same refusal.
    """
    path = Path(path)
    parsed = _parse_canonical_csv(raw)
    names, features, targets = _parse_csv_lines(raw, path) if parsed is None else parsed
    return Dataset._adopt(features, targets, names)


# Every byte ``dataset_to_csv`` writes below its header: the reprs of finite
# floats, 0/1 targets, commas and line ends.
_CANONICAL_ROW_BYTES = b"0123456789.e+-,\n"
# Bytes of the rows checked at a time against ``_CANONICAL_ROW_BYTES``.
_CANONICAL_SLICE = 1 << 16


def _parse_canonical_csv(raw: bytes):
    """``(names, features, targets)`` of ``raw`` in the layout of ``dataset_to_csv``, else None.

    That layout: an ASCII header without quotes or ``\\r`` that ends in
    ``target``; then at least one row, each of ``_CANONICAL_ROW_BYTES`` only
    and ending in ``,0\\n`` or ``,1\\n``; as many fields in every row as in
    the header. Only the header is decoded; the rows are parsed from the bytes.
    """
    end = raw.find(b"\n") + 1
    head = raw[:end]
    if not end or not head.isascii() or b'"' in head or b"\r" in head:
        return None
    names = tuple(head[:-1].decode("ascii").split(","))
    rows = raw.count(b"\n") - 1
    if (
        len(names) < 2
        or names[-1] != "target"
        or rows < 1
        or not raw.endswith(b"\n")
        # Deleting the row bytes from each slice of the rows leaves no byte.
        or any(
            raw[at : at + _CANONICAL_SLICE].translate(None, _CANONICAL_ROW_BYTES)
            for at in range(end, len(raw), _CANONICAL_SLICE)
        )
        # Each row ends in one of the two; the header ends in "target\n".
        or raw.count(b",0\n") + raw.count(b",1\n") != rows
    ):
        return None
    try:
        # max_rows lets loadtxt allocate its table once, at its final size.
        table = np.loadtxt(
            io.BytesIO(raw), dtype=np.float64, delimiter=",", comments=None,
            skiprows=1, max_rows=rows, ndmin=2,
        )
    except ValueError:
        return None
    if table.shape != (rows, len(names)):
        return None
    targets = table[:, -1].astype(np.int64)
    # Each row's features move over the target column of the row before, a
    # block at a time (numpy buffers a block whose source and destination
    # overlap), so the table's first rows * d floats become the C-ordered
    # (rows, d) features and the buffer shrinks to them.
    d = len(names) - 1
    flat = table.reshape(-1)
    for start in range(0, rows, _CSV_BLOCK_ROWS):
        stop = min(start + _CSV_BLOCK_ROWS, rows)
        flat[start * d : stop * d].reshape(stop - start, d)[...] = table[start:stop, :d]
    del flat
    table.resize((rows, d), refcheck=False)
    return names[:-1], table, targets


def _parse_csv_lines(raw: bytes, path: Path):
    """``(names, features, targets)`` of any csv the line parser accepts.

    A SchemaError names the first bad line.
    """
    with _text(raw) as text, _decoding(path):
        reader = csv.reader(text)
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
    return tuple(header[:-1]), np.concatenate(feature_blocks), np.concatenate(target_blocks)
