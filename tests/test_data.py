from __future__ import annotations

import csv
import hashlib
import io
import itertools
import pickle

import numpy as np
import pytest

from relu_prism import Dataset, InputError, SchemaError, data, gen_boolean, load_titanic, split
from relu_prism.data import (
    TITANIC_FEATURE_NAMES,
    boolean_target,
    dataset_to_csv,
    read_dataset_csv,
)

TITANIC_HEADER = "Survived,Pclass,Name,Sex,Age,SibSp,Parch,Fare,Embarked\n"
# Each titanic feature's codes; their product is the 5*2*3*4*3*5*2 = 3,600-point grid.
TITANIC_CODES = {
    "Age": {0, 1, 2, 3, 4},
    "Gender": {0, 1},
    "Pclass": {1, 2, 3},
    "Fare": {0, 1, 2, 3},
    "Embarked": {0, 1, 2},
    "Title": {1, 2, 3, 4, 5},
    "IsAlone": {0, 1},
}


class TestDatasetType:
    def test_basic_construction(self):
        ds = Dataset([[1.0, 2.0]], [1], ("a", "b"))
        assert ds.n_rows == 1
        assert ds.n_features == 2
        assert ds.feature_names == ("a", "b")

    @pytest.mark.parametrize(
        "features,targets,names",
        [
            (np.zeros((0, 2)), [], ("a", "b")),
            ([[1.0]], [2], ("a",)),
            ([[np.nan]], [0], ("a",)),
            ([[1.0, 2.0]], [0], ("a",)),
            ([[1.0]], [0, 1], ("a",)),
        ],
    )
    def test_rejects_invalid(self, features, targets, names):
        with pytest.raises(InputError):
            Dataset(features, targets, names)

    @pytest.mark.parametrize("rows", [1, 1025])
    def test_refuses_a_matrix_without_feature_columns(self, rows):
        """Its CSV would be a lone target column, which neither reader takes."""
        with pytest.raises(InputError, match=r"one column, got shape \(%d, 0\)$" % rows):
            Dataset(np.empty((rows, 0)), np.arange(rows) % 2, ())

    @pytest.mark.parametrize(
        "targets",
        [[0.7, 1.0], [0.0, 1.5], [-1, 1], ["1", "0"], [b"1", b"0"], [1 + 0j, 0j], [None, 1]],
    )
    def test_refuses_targets_that_are_not_0_or_1_as_numbers(self, targets):
        """No target is truncated to 0 or 1, nor parsed from a string."""
        with pytest.raises(InputError, match="^targets must be 0 or 1$"):
            Dataset([[1.0], [2.0]], targets, ("a",))

    @pytest.mark.parametrize(
        "targets",
        [[0, 1], [False, True], [0.0, 1.0], np.array([0, 1], dtype=np.uint8)],
    )
    def test_accepts_0_and_1_of_any_numeric_type(self, targets):
        ds = Dataset([[1.0], [2.0]], targets, ("a",))
        assert ds.targets.dtype == np.int64
        np.testing.assert_array_equal(ds.targets, [0, 1])

    def test_arrays_read_only(self):
        ds = Dataset([[1.0]], [0], ("a",))
        with pytest.raises(ValueError):
            ds.features[0, 0] = 5.0

    def test_take_subsets_rows(self):
        ds = Dataset([[1.0], [2.0], [3.0]], [0, 1, 0], ("a",))
        sub = ds.take(np.array([2, 0]))
        np.testing.assert_array_equal(sub.features[:, 0], [3.0, 1.0])
        np.testing.assert_array_equal(sub.targets, [0, 0])

    def test_pickle_keeps_arrays_read_only(self):
        ds = gen_boolean(50, 3)
        back = pickle.loads(pickle.dumps(ds))
        assert type(back) is Dataset and back.feature_names == ds.feature_names
        for got, want in ((back.features, ds.features), (back.targets, ds.targets)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
            assert not got.flags.writeable


def refusal(make, features, targets, names):
    """The InputError message of ``make(features, targets, names)``, or None if it accepts them."""
    try:
        make(features, targets, names)
    except InputError as exc:
        return str(exc)
    return None


class TestAdoptedDataset:
    """``Dataset._adopt`` holds the arrays it is given, checked as ``Dataset`` checks its copies."""

    @staticmethod
    def table(rows=5, cols=3):
        rng = np.random.default_rng(rows + cols)
        return rng.normal(size=(rows, cols)), rng.integers(0, 2, rows)

    @pytest.mark.parametrize("cell", [(0, 0), (4, 2), (2, 1)])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_refuses_non_finite_features_alike(self, cell, value):
        X, t = self.table()
        X[cell] = value
        want = refusal(Dataset, X.copy(), t.copy(), ("a", "b", "c"))
        assert want == "features must be finite"
        assert refusal(Dataset._adopt, X, t, ("a", "b", "c")) == want

    @pytest.mark.parametrize(
        "targets",
        [[0, 1, 2, 0, 1], [0.0, 1.0, 0.5, 0.0, 1.0], [-1, 1, 0, 0, 1], np.array(list("10101")),
         [0.0, 1.0, np.nan, 0.0, 1.0]],
    )
    def test_refuses_targets_that_are_not_0_or_1_alike(self, targets):
        X, _ = self.table()
        want = refusal(Dataset, X.copy(), targets, ("a", "b", "c"))
        assert want == "targets must be 0 or 1"
        assert refusal(Dataset._adopt, X, np.asarray(targets), ("a", "b", "c")) == want

    @pytest.mark.parametrize("names", [("a", "b"), ("a", "b", "c", "d"), ()])
    def test_refuses_a_wrong_count_of_names_alike(self, names):
        X, t = self.table()
        want = refusal(Dataset, X.copy(), t.copy(), names)
        assert want == f"{len(names)} feature names for 3 feature columns"
        assert refusal(Dataset._adopt, X, t, names) == want

    def test_holds_its_arrays_read_only(self):
        X, t = self.table(1030, 4)
        ds = Dataset._adopt(X, t, ("a", "b", "c", "d"))
        assert ds.features is X and ds.targets is t
        assert not X.flags.writeable and not t.flags.writeable
        public = Dataset(X, t, ("a", "b", "c", "d"))
        assert public.features is not X
        assert public.features.tobytes() == ds.features.tobytes()
        assert public.targets.tobytes() == ds.targets.tobytes()
        assert public.feature_names == ds.feature_names

    @pytest.mark.parametrize("targets", [[0, 1], [False, True], [0.0, 1.0]])
    def test_targets_become_int64(self, targets):
        ds = Dataset._adopt(np.array([[1.0], [2.0]]), np.array(targets), ("a",))
        assert ds.targets.dtype == np.int64 and not ds.targets.flags.writeable
        np.testing.assert_array_equal(ds.targets, [0, 1])


class TestBooleanSimulation:
    def test_full_truth_table(self):
        # independent evaluation: the formula is true on exactly
        # {(0,1,0), (1,0,1), (1,1,0), (1,1,1)}
        truth = {(0, 1, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1)}
        for v1, v2, v3 in itertools.product((0, 1), repeat=3):
            expected = 1 if (v1, v2, v3) in truth else 0
            assert boolean_target(v1, v2, v3) == expected

    def test_known_rows(self):
        assert boolean_target(1, 0, 1) == 1
        assert boolean_target(0, 0, 0) == 0

    def test_target_column_consistent_with_features(self):
        ds = gen_boolean(5000, seed=3)
        np.testing.assert_array_equal(
            ds.targets, boolean_target(ds.features[:, 0], ds.features[:, 1], ds.features[:, 2])
        )

    def test_rate_converges_to_half(self):
        ds = gen_boolean(100_000, seed=0)
        assert abs(ds.targets.mean() - 0.5) < 0.01

    def test_shape_names_and_values(self):
        ds = gen_boolean(100, seed=1)
        assert ds.features.shape == (100, 10)
        assert ds.feature_names == tuple(f"v{i}" for i in range(1, 11))
        assert set(np.unique(ds.features)) <= {0.0, 1.0}

    @pytest.mark.parametrize("n", [1, 1023, 1024, 1025, 3000])
    def test_draws_are_those_of_one_call(self, n):
        """The rows are drawn a block at a time, as one (n, 10) draw makes them."""
        ds = gen_boolean(n, 11)
        want = np.random.default_rng(11).integers(0, 2, size=(n, 10)).astype(np.float64)
        assert ds.features.tobytes() == want.tobytes()
        assert not ds.features.flags.writeable and not ds.targets.flags.writeable

    def test_deterministic(self):
        a = gen_boolean(200, seed=7)
        b = gen_boolean(200, seed=7)
        np.testing.assert_array_equal(a.features, b.features)

    def test_rejects_empty(self):
        with pytest.raises(InputError):
            gen_boolean(0, seed=0)


class TestTitanicPipeline:
    def test_tiny_fixture_exact_encoding(self, tiny_titanic_csv):
        """Hand-computed expected matrix for the eight fixture passengers.

        Age bands over [2, 54] have inner edges 12.4/22.8/33.2/43.6; the
        missing age imputes to 22 (median of the male 3rd-class group); fare
        quartiles are 8.01875/14.76665/52.171875.
        """
        ds = load_titanic(tiny_titanic_csv)
        expected = np.array(
            [
                [1, 0, 3, 0, 0, 1, 0],
                [3, 1, 1, 3, 1, 3, 0],
                [2, 1, 3, 0, 0, 2, 1],
                [3, 1, 1, 3, 0, 3, 0],
                [3, 0, 3, 1, 0, 1, 1],
                [1, 0, 3, 1, 2, 1, 1],
                [4, 0, 1, 2, 0, 1, 1],
                [0, 0, 3, 2, 0, 4, 0],
            ],
            dtype=np.float64,
        )
        np.testing.assert_array_equal(ds.features, expected)
        np.testing.assert_array_equal(ds.targets, [0, 1, 1, 1, 0, 0, 0, 0])
        assert ds.feature_names == TITANIC_FEATURE_NAMES

    def test_synthetic_fixture_ranges(self, synthetic_titanic_csv):
        ds = load_titanic(synthetic_titanic_csv)
        X = ds.features
        assert ds.n_rows == 34
        lows = X.min(axis=0)
        highs = X.max(axis=0)
        # Table ranges: Age 0-4, Gender 0-1, Pclass 1-3, Fare 0-3,
        # Embarked 0-2, Title 1-5, IsAlone 0-1
        assert np.all(lows >= [0, 0, 1, 0, 0, 1, 0])
        assert np.all(highs <= [4, 1, 3, 3, 2, 5, 1])
        assert np.array_equal(X, np.round(X))
        for name, column in zip(ds.feature_names, X.T):
            assert set(column.tolist()) <= TITANIC_CODES[name], name

    def test_title_synonyms_and_rare(self, synthetic_titanic_csv):
        ds = load_titanic(synthetic_titanic_csv)
        title = ds.features[:, 5]
        assert title[4] == 3  # Mme maps to Mrs
        assert title[11] == 2  # Ms maps to Miss
        assert title[13] == 2  # Mlle maps to Miss
        assert title[9] == 4  # Master
        assert title[18] == 5  # Rev is rare
        assert title[27] == 5  # Capt is rare
        assert title[30] == 5  # Countess is rare
        assert title[33] == 5  # Dr is rare

    def test_is_alone_and_gender(self, synthetic_titanic_csv):
        ds = load_titanic(synthetic_titanic_csv)
        assert ds.features[0, 6] == 1  # no relatives aboard
        assert ds.features[1, 6] == 0  # spouse and child aboard
        assert ds.features[0, 1] == 0 and ds.features[1, 1] == 1

    def test_missing_embarked_gets_mode(self, synthetic_titanic_csv):
        ds = load_titanic(synthetic_titanic_csv)
        assert ds.features[19, 4] == 0  # blank port imputes to S, the mode

    def test_missing_fare_imputed_in_range(self, synthetic_titanic_csv):
        ds = load_titanic(synthetic_titanic_csv)
        assert ds.features[29, 3] in (0.0, 1.0, 2.0, 3.0)

    def test_group_without_ages_uses_overall_median(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(
            "Survived,Pclass,Name,Sex,Age,SibSp,Parch,Fare,Embarked\n"
            '0,3,"A, Mr. B",male,10,0,0,5,S\n'
            '0,3,"C, Mr. D",male,30,0,0,6,S\n'
            '1,1,"E, Miss. F",female,,0,0,7,S\n'
        )
        ds = load_titanic(path)
        # the lone female group has no observed age, so the overall median 20
        # fills in; bands over [10, 30] have edges 14/18/22/26, putting 20 in band 2
        np.testing.assert_array_equal(ds.features[:, 0], [0.0, 4.0, 2.0])

    def test_constant_age_collapses_to_band_zero(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(
            "Survived,Pclass,Name,Sex,Age,SibSp,Parch,Fare,Embarked\n"
            '0,3,"A, Mr. B",male,30,0,0,5,S\n'
            '1,3,"C, Mrs. D",female,30,0,0,6,C\n'
        )
        ds = load_titanic(path)
        assert ds.features[0, 0] == 0.0 and ds.features[1, 0] == 0.0

    def test_missing_column_named_in_error(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("Survived,Pclass,Name,Sex,Age,SibSp,Parch,Fare\n")
        with pytest.raises(SchemaError, match="Embarked"):
            load_titanic(path)

    def test_bad_row_reports_line_number(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(
            "Survived,Pclass,Name,Sex,Age,SibSp,Parch,Fare,Embarked\n"
            '0,3,"A, Mr. B",male,22,0,0,5,S\n'
            '1,3,"C, Mrs. D",female,abc,0,0,6,C\n'
        )
        with pytest.raises(SchemaError, match="line 3"):
            load_titanic(path)

    @pytest.mark.parametrize(
        "row",
        [
            '2,3,"A, Mr. B",male,22,0,0,5,S',
            '0,3,"A, Mr. B",robot,22,0,0,5,S',
            '0,3,"A, Mr. B",male,22,0,0,5,X',
            '0,3,"A, Mr. B",male,22,0,0',
            '0,0,"A, Mr. B",male,22,0,0,5,S',
            '0,4,"A, Mr. B",male,22,0,0,5,S',
            '0,-1,"A, Mr. B",male,22,0,0,5,S',
            '0,1000000000000,"A, Mr. B",male,22,0,0,5,S',
        ],
    )
    def test_invalid_rows_rejected(self, tmp_path, row):
        path = tmp_path / "t.csv"
        path.write_text(
            "Survived,Pclass,Name,Sex,Age,SibSp,Parch,Fare,Embarked\n" + row + "\n"
        )
        with pytest.raises(SchemaError):
            load_titanic(path)

    @pytest.mark.parametrize(
        "rows, message",
        [
            ('0,3,"A, Mr. B",male,22,0,0,5,S\n1,-1,"C, Mrs. D",female,30,1,0,6,C',
             "line 3: Pclass must be 1, 2 or 3, got -1"),
            ('2,0,"A, Mr. B",male,22,0,0,5,S', "line 2: Survived must be 0 or 1, got 2"),
            ('0,0,"A, Mr. B",male,22,0,0,5,X', "line 2: unknown Embarked value 'X'"),
            ('0,0,"A, Mr. B",male,abc,0,0,5,S', "line 2: Pclass must be 1, 2 or 3, got 0"),
            ('0,3,"A, Mr. B",male,22,0,0,5,S\n0,3,"C, Mr. D",male,-20,0,0,5,S',
             "line 3: Age must be >= 0, got -20.0"),
            ('0,3,"A, Mr. B",male,20,-1,1,5,S', "line 2: SibSp must be >= 0, got -1"),
            ('0,3,"A, Mr. B",male,20,0,-1,5,S', "line 2: Parch must be >= 0, got -1"),
            ('0,3,"A, Mr. B",male,20,0,0,-0.5,S', "line 2: Fare must be >= 0, got -0.5"),
            ('0,0,"A, Mr. B",male,-20,0,0,5,S', "line 2: Pclass must be 1, 2 or 3, got 0"),
            ('0,3,"A, Mr. B",male,-20,-1,-1,-5,S', "line 2: Age must be >= 0, got -20.0"),
            ('0,3,"A, Mr. B",male,abc,-1,0,5,S', "line 2: cannot parse Age='abc' as a number"),
            ('0,3,"A, Mr. B",male,-20,x,0,5,S', "line 2: Age must be >= 0, got -20.0"),
            ('0,3,"A, Mr. B",male,20,-1,x,5,S', "line 2: SibSp must be >= 0, got -1"),
            ('0,3,"A, Mr. B",male,20,0,-1,inf,S', "line 2: Parch must be >= 0, got -1"),
            ('0,3,"A, Mr. B",male,,0,0,-5,S', "line 2: Fare must be >= 0, got -5.0"),
        ],
        ids=["class-outside-the-grid", "survived-before-class", "port-before-class",
             "class-before-age", "negative-age", "negative-sibsp", "negative-parch",
             "negative-fare", "class-before-negative-age", "negative-age-before-the-rest",
             "unparsed-age-before-negative-sibsp", "negative-age-before-unparsed-sibsp",
             "negative-sibsp-before-unparsed-parch", "negative-parch-before-infinite-fare",
             "negative-fare-after-missing-age"],
    )
    def test_first_fault_is_named_with_its_line(self, tmp_path, rows, message):
        path = tmp_path / "t.csv"
        path.write_text(TITANIC_HEADER + rows + "\n")
        with pytest.raises(SchemaError) as info:
            load_titanic(path)
        assert str(info.value) == message

    def test_no_data_rows(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("Survived,Pclass,Name,Sex,Age,SibSp,Parch,Fare,Embarked\n")
        with pytest.raises(SchemaError):
            load_titanic(path)

    def test_name_without_title_is_rare(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(
            "Survived,Pclass,Name,Sex,Age,SibSp,Parch,Fare,Embarked\n"
            '0,3,Nameless,male,22,0,0,5,S\n'
        )
        assert load_titanic(path).features[0, 5] == 5

    @pytest.mark.parametrize("column", ["Age", "Fare"])
    @pytest.mark.parametrize("value", ["inf", "-inf", "1e400", "nan", "NaN"])
    def test_non_finite_number_names_its_line_and_column(
        self, tmp_path, synthetic_titanic_csv, column, value
    ):
        with open(synthetic_titanic_csv, newline="") as f:
            rows = list(csv.reader(f))
        rows[4][rows[0].index(column)] = value  # the row on line 5
        path = tmp_path / "t.csv"
        with open(path, "w", newline="") as f:
            csv.writer(f, lineterminator="\n").writerows(rows)
        with pytest.raises(SchemaError) as info:
            load_titanic(path)
        assert str(info.value) == f"line 5: {column}={value!r} is not a finite number"

    def test_deterministic(self, synthetic_titanic_csv):
        a = load_titanic(synthetic_titanic_csv)
        b = load_titanic(synthetic_titanic_csv)
        np.testing.assert_array_equal(a.features, b.features)


class TestSplit:
    def make(self, n=10):
        rng = np.random.default_rng(5)
        return Dataset(rng.normal(size=(n, 2)), rng.integers(0, 2, n), ("a", "b"))

    def test_half_split_sizes(self):
        first, second = split(self.make(10), 0.5, seed=1)
        assert first.n_rows == 5 and second.n_rows == 5

    def test_same_seed_same_split(self):
        ds = self.make(20)
        a1, b1 = split(ds, 0.3, seed=9)
        a2, b2 = split(ds, 0.3, seed=9)
        np.testing.assert_array_equal(a1.features, a2.features)
        np.testing.assert_array_equal(b1.targets, b2.targets)

    def test_parts_recompose_target_mean(self):
        ds = self.make(30)
        a, b = split(ds, 0.4, seed=2)
        recomposed = (a.targets.sum() + b.targets.sum()) / ds.n_rows
        assert recomposed == pytest.approx(ds.targets.mean())

    @pytest.mark.parametrize("fraction", [0.0, 1.0, -0.5, 1.5])
    def test_fraction_bounds(self, fraction):
        with pytest.raises(InputError):
            split(self.make(), fraction, seed=0)

    def test_degenerate_empty_part(self):
        with pytest.raises(InputError):
            split(self.make(10), 0.01, seed=0)


def csv_writer_text(ds: Dataset) -> str:
    """What ``csv.writer`` makes of the header and of the rows as Python floats and ints."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([*ds.feature_names, "target"])
    writer.writerows(x + [t] for x, t in zip(ds.features.tolist(), ds.targets.tolist()))
    return buf.getvalue()


def digit_table(rows: int, cols: int, seed: int) -> Dataset:
    """Random codes 0 .. 9 as floats, random 0/1 targets."""
    rng = np.random.default_rng(seed)
    return Dataset(rng.integers(0, 10, (rows, cols)).astype(np.float64),
                   rng.integers(0, 2, rows), tuple(f"f{j}" for j in range(cols)))


def with_value(ds: Dataset, value: float) -> Dataset:
    """``ds`` with ``value`` in one cell of its second write block."""
    X = ds.features.copy()
    X[data._CSV_BLOCK_ROWS + 5, 1] = value
    return Dataset(X, ds.targets, ds.feature_names)


def stacked(first: Dataset, second: Dataset) -> Dataset:
    return Dataset(np.vstack([first.features, second.features]),
                   np.concatenate([first.targets, second.targets]), first.feature_names)


def gaussian_table(rows: int, cols: int, seed: int) -> Dataset:
    rng = np.random.default_rng(seed)
    return Dataset(rng.normal(size=(rows, cols)), rng.integers(0, 2, rows),
                   tuple(f"f{j}" for j in range(cols)))


_B = data._CSV_BLOCK_ROWS

# The two kinds of discrete table the program writes: the simulation's {0,1}
# rows, over three write blocks, and Titanic-style ordinal codes 0-5.
DIGIT_TABLES = {
    "boolean": lambda: gen_boolean(3000, 7),
    "titanic-codes": lambda: Dataset(
        np.random.default_rng(8).integers(0, 6, (891, 7)).astype(np.float64),
        np.random.default_rng(9).integers(0, 2, 891), TITANIC_FEATURE_NAMES),
}

# Tables whose write blocks hold only the values 0.0 .. 9.0, beside tables
# with one block, or one cell, outside them.
MIXED_TABLES = {
    "digits-then-gaussian": lambda: stacked(digit_table(_B, 3, 1), gaussian_table(_B + 9, 3, 2)),
    "gaussian-then-digits": lambda: stacked(gaussian_table(_B, 3, 3), digit_table(_B + 9, 3, 4)),
    **{
        f"one-cell-{value!r}": (lambda value=value: with_value(digit_table(3 * _B, 3, 5), value))
        for value in (10.0, 0.5, -1.0, -0.0)
    },
    "all-nines": lambda: Dataset(np.full((_B + 3, 4), 9.0), np.arange(_B + 3) % 2,
                                 ("a", "b", "c", "d")),
    "one-feature-column": lambda: digit_table(_B + 1, 1, 6),
    "one-row": lambda: digit_table(1, 3, 7),
}


class TestCsvRoundTrip:
    def test_header_layout(self):
        rng = np.random.default_rng(3)
        ds = Dataset(rng.normal(size=(25, 3)), rng.integers(0, 2, 25), ("a", "b", "c"))
        assert dataset_to_csv(ds).splitlines()[0] == "a,b,c,target"

    def test_exact_bytes(self):
        ds = Dataset(
            [[0.1, -2.5, 1e-7], [3.0, 1.0 / 3.0, -0.0], [1e20, 2.0**-30, 123456.789]],
            [1, 0, 1],
            ("a", "b", "c"),
        )
        assert dataset_to_csv(ds) == (
            "a,b,c,target\n"
            "0.1,-2.5,1e-07,1\n"
            "3.0,0.3333333333333333,-0.0,0\n"
            "1e+20,9.313225746154785e-10,123456.789,1\n"
        )

    def test_rows_across_blocks(self):
        # several write blocks; each line is the row's float reprs, row by row
        rng = np.random.default_rng(5)
        ds = Dataset(rng.normal(size=(3000, 2)), rng.integers(0, 2, 3000), ("a", "b"))
        expected = "a,b,target\n" + "".join(
            f"{float(x[0])!r},{float(x[1])!r},{int(t)}\n"
            for x, t in zip(ds.features, ds.targets)
        )
        assert dataset_to_csv(ds) == expected

    def test_matches_csv_writer(self):
        # Awkward names are quoted in the header; special floats are written
        # by their repr, over more than one write block.
        rng = np.random.default_rng(9)
        names = ("a,b", 'say "hi"', "Größe", "", "x")
        X = special_floats(rng, (2500, len(names)))
        X[:7, 0] = [-0.0, 5e-324, 1e16, 1e-7, 3.0, -12.0, 2.0**53]
        ds = Dataset(X, rng.integers(0, 2, 2500), names)
        assert dataset_to_csv(ds) == csv_writer_text(ds)
        assert dataset_to_csv(ds).startswith('"a,b","say ""hi""",Größe,,x,target\n-0.0,')

    @pytest.mark.parametrize(
        "rows, features",
        [(1, 3), (data._CSV_BLOCK_ROWS, 3), (data._CSV_BLOCK_ROWS + 1, 3),
         (2 * data._CSV_BLOCK_ROWS, 3), (data._CSV_BLOCK_ROWS + 1, 1)],
    )
    def test_block_edges_match_csv_writer(self, rows, features):
        rng = np.random.default_rng(rows + features)
        names = tuple(f"f{j}" for j in range(features))
        X = special_floats(rng, (rows, features))
        ds = Dataset(X, rng.integers(0, 2, rows), names)
        assert dataset_to_csv(ds) == csv_writer_text(ds)

    # Recorded from the writer that formats every value with repr.
    DIGIT_TABLE_SHA256 = {
        "boolean": "6dbe752d2bdf0c06e0032a97c4e943f87425a77badf1b462bf01694a4678e611",
        "titanic-codes": "4a4f85592cda514f00c915fdf519d65d1c802a55bd9e3417b671492e96794467",
    }

    @pytest.mark.parametrize("name", list(DIGIT_TABLE_SHA256))
    def test_digit_tables_are_pinned(self, name):
        text = dataset_to_csv(DIGIT_TABLES[name]())
        assert hashlib.sha256(text.encode()).hexdigest() == self.DIGIT_TABLE_SHA256[name]

    @pytest.mark.parametrize("name", list(MIXED_TABLES))
    def test_mixed_tables_match_csv_writer(self, name):
        ds = MIXED_TABLES[name]()
        assert dataset_to_csv(ds) == csv_writer_text(ds)

    @pytest.mark.parametrize(
        "ds, digit_blocks",
        [(gen_boolean(3000, 7), 3), (gaussian_table(3000, 10, 13), 0)],
        ids=["boolean", "gaussian"],
    )
    def test_digit_table_writes_every_boolean_block_and_no_gaussian_one(
        self, ds, digit_blocks, monkeypatch
    ):
        calls, digit_rows = [], data._digit_rows

        def counted(block):
            calls.append(len(block))
            return digit_rows(block)

        monkeypatch.setattr(data, "_digit_rows", counted)
        assert dataset_to_csv(ds) == csv_writer_text(ds)
        assert len(calls) == digit_blocks and sum(calls) == 3000 * (digit_blocks > 0)

    @pytest.mark.parametrize("rows", [1, _B, _B + 1, 2 * _B])
    @pytest.mark.parametrize("kind", ["digits", "gaussian", "mixed"])
    def test_streamed_file_holds_dataset_to_csv(self, tmp_path, rows, kind):
        """The file the CLI streams a block at a time has the bytes of the joined text."""
        if kind == "digits":
            ds = digit_table(rows, 3, rows)
        elif kind == "gaussian":
            ds = gaussian_table(rows, 3, rows)
        else:
            # Digit blocks and Gaussian blocks in turn; one block mixes both.
            digits, gauss = digit_table(rows, 3, rows), gaussian_table(rows, 3, rows)
            X = np.where((np.arange(rows) // (_B // 2) % 2 == 0)[:, None],
                         digits.features, gauss.features)
            ds = Dataset(X, digits.targets, digits.feature_names)
        path = tmp_path / "dataset.csv"
        data._write_dataset_csv(ds, path)
        assert path.read_bytes() == dataset_to_csv(ds).encode()

    def test_file_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        ds = Dataset(rng.normal(size=(25, 3)), rng.integers(0, 2, 25), ("a", "b", "c"))
        path = tmp_path / "d.csv"
        path.write_text(dataset_to_csv(ds))
        back = read_dataset_csv(path)
        np.testing.assert_array_equal(back.features, ds.features)
        np.testing.assert_array_equal(back.targets, ds.targets)
        assert back.feature_names == ds.feature_names

    def test_file_round_trip_across_blocks(self, tmp_path):
        # several read blocks, the last one partial
        rng = np.random.default_rng(6)
        ds = Dataset(rng.normal(size=(2500, 3)), rng.integers(0, 2, 2500), ("a", "b", "c"))
        path = tmp_path / "d.csv"
        path.write_text(dataset_to_csv(ds))
        back = read_dataset_csv(path)
        assert back.features.tobytes() == ds.features.tobytes()
        np.testing.assert_array_equal(back.targets, ds.targets)

    @pytest.mark.parametrize("bad", ["x,1", "1.0,2", "1.0"])
    def test_bad_line_in_second_block_names_its_line(self, tmp_path, bad):
        lines = ["a,target"] + ["1.5,0"] * 1500
        lines[1200] = bad
        path = tmp_path / "d.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError, match="^line 1201: "):
            read_dataset_csv(path)

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "a,b\n",
            "a,target\n1.0\n",
            "a,target\n1.0,2\n",
            "a,target\nx,1\n",
        ],
    )
    def test_read_errors(self, tmp_path, text):
        path = tmp_path / "d.csv"
        path.write_text(text)
        with pytest.raises(SchemaError):
            read_dataset_csv(path)


def parse_outcome(raw: bytes, path="d.csv"):
    """What ``parse_dataset_csv`` makes of ``raw``: the dataset's bytes, or the refusal."""
    try:
        ds = data.parse_dataset_csv(raw, path)
    except (InputError, SchemaError) as exc:
        return type(exc), str(exc)
    return (ds.features.tobytes(), ds.features.shape, ds.targets.tobytes(),
            ds.feature_names)


def line_parser_outcome(raw: bytes, monkeypatch, path="d.csv"):
    """``parse_outcome`` with the bulk path switched off: the line parser's result."""
    with monkeypatch.context() as patch:
        patch.setattr(data, "_parse_canonical_csv", lambda raw: None)
        return parse_outcome(raw, path)


def special_floats(rng, shape) -> np.ndarray:
    """Gaussian values mixed with -0.0, subnormals, +-1e308 and integer-valued floats."""
    specials = np.array([
        -0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e-310, 1e308, -1e308,
        1.7976931348623157e308, 3.0, -7.0, 2.0**53, 1e16, 123456789.0,
    ])
    X = rng.normal(size=shape) * 10.0 ** rng.integers(-300, 300, size=shape)
    pick = rng.random(shape) < 0.3
    X[pick] = rng.choice(specials, size=int(pick.sum()))
    return X


class TestCsvBulkPath:
    """The layout ``dataset_to_csv`` writes is parsed in bulk; anything else by the line parser."""

    @pytest.mark.parametrize("rows, cols", [(1, 1), (1, 4), (7, 1), (2500, 3), (2500, 1)])
    def test_canonical_bytes_give_the_line_parsers_dataset(self, rows, cols, monkeypatch):
        rng = np.random.default_rng(rows * 10 + cols)
        ds = Dataset(special_floats(rng, (rows, cols)), rng.integers(0, 2, rows),
                     tuple(f"f{j}" for j in range(cols)))
        raw = dataset_to_csv(ds).encode()
        assert data._parse_canonical_csv(raw) is not None  # the bulk path is taken
        bulk = parse_outcome(raw)
        assert bulk == line_parser_outcome(raw, monkeypatch)
        assert bulk[0] == ds.features.tobytes() and bulk[2] == ds.targets.tobytes()

    # Every table the writer tests use.
    WRITTEN = {
        **DIGIT_TABLES,
        **MIXED_TABLES,
        "gaussian": lambda: gaussian_table(2500, 10, 12),
    }

    @pytest.mark.parametrize("name", list(WRITTEN))
    def test_written_tables_take_the_bulk_path(self, name):
        ds = self.WRITTEN[name]()
        parsed = data._parse_canonical_csv(dataset_to_csv(ds).encode())
        assert parsed is not None
        names, features, targets = parsed
        assert names == ds.feature_names
        assert features.shape == ds.features.shape
        assert features.tobytes() == ds.features.tobytes()
        # The parsed table itself, compacted to the features and shrunk.
        assert features.flags.c_contiguous and features.flags.owndata
        assert features.nbytes == ds.features.nbytes
        assert targets.tobytes() == ds.targets.tobytes()

    BASE = "a,b,target\n1.5,-2.0,1\n0.25,3.0,0\n-0.0,1e-07,1\n"

    @pytest.mark.parametrize(
        "raw",
        [
            BASE.replace("\n", "\r\n").encode(),  # CRLF line ends
            b'a,b,target\n"1.5",-2.0,1\n0.25,3.0,0\n',  # a quoted field
            b'"a","b","target"\n1.5,-2.0,1\n',  # a quoted header
            b"a,b,target\n1.5,-2.0, 1\n0.25,3.0,0\n",  # target " 1"
            b"a,b,target\n1.5,-2.0,+1\n0.25,3.0,0\n",  # target "+1"
            b"a,b,target\n1.5,-2.0,01\n0.25,3.0,0\n",  # target "01"
            b"a,b,target\n1.5,-2.0,1\n0.25,3.0,1.0\n",  # target "1.0"
            b"a,b,target\n1.5,-2.0,1\n\n0.25,3.0,0\n",  # a blank line
            b"a,b,target\n1.5,-2.0,1\n0.25,3.0,0\n\n",  # a blank last line
            BASE.encode()[:-1],  # no trailing newline
            b"a,b,target\n1_0,-2.0,1\n0.25,3.0,0\n",  # 1_0, which float() takes for 10
            b"a,b,target\n1.5, -2.0,1\n",  # a space before a number
            b"a,b,target\n1.5,-2.0,1,0\n0.25,3.0,0,1\n",  # every row one field too many
            b"a,b,target\n1.5,1\n0.25,0\n",  # every row one field too few
            b"a,b,target\n1.5,,1\n",  # an empty field
            b"a,b,target\n1.5,nan,1\n",  # a non-finite feature
            b"a,b,target\n1.5,-2.0,2\n",  # target 2
            b"a,b,target\n1.5,--2.0,1\n",  # not a number, in the row alphabet
            b"a\xff,b,target\n1.5,-2.0,1\n",  # a non-UTF-8 byte in the header
            b"a,b,target\n1.5,-2.0\xff,1\n",  # a non-UTF-8 byte in a row
            b"a,b,target\n1.5,-2.0\xa0,1\n",  # a byte latin-1 reads as a space
            "a,é,target\n1.5,-2.0,1\n".encode(),  # a header that is not ASCII
            b"a,b,target\n1.5,\xd9\xa3,1\n",  # a digit float() reads, not ASCII
            b"a,b,label\n1.5,-2.0,1\n",  # no target column
            b"target\n1\n",  # no feature column
            b"a,b,target\n",  # no rows
            b"",  # empty
        ],
    )
    def test_other_bytes_give_the_line_parsers_result(self, raw, monkeypatch):
        assert data._parse_canonical_csv(raw) is None
        assert parse_outcome(raw) == line_parser_outcome(raw, monkeypatch)

    def test_overflowing_feature_is_refused_alike(self, monkeypatch):
        """1e999 has the canonical layout; both parsers read inf and the dataset refuses it."""
        raw = b"a,b,target\n1.5,1e999,1\n"
        assert parse_outcome(raw) == (InputError, "features must be finite")
        assert parse_outcome(raw) == line_parser_outcome(raw, monkeypatch)

    def test_refusal_names_the_same_line(self, monkeypatch):
        raw = ("a,target\n" + "1.5,0\n" * 1500 + "1.5,1.0\n").encode()
        outcome = parse_outcome(raw)
        assert outcome == (SchemaError, "line 1502: target must be 0 or 1, got '1.0'")
        assert outcome == line_parser_outcome(raw, monkeypatch)
