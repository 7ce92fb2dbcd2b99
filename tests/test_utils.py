"""Tests for repro.utils: rng plumbing, text tables, validation."""

import numpy as np
import pytest

from repro.utils import (
    SeedSequenceFactory,
    TextTable,
    check_in_choices,
    check_positive,
    check_probability,
    ensure_rng,
    format_float,
    spawn_rngs,
)
from repro.utils.validation import check_nonnegative


class TestEnsureRng:
    def test_int_seed_deterministic(self):
        a = ensure_rng(5).random(3)
        b = ensure_rng(5).random(3)
        np.testing.assert_array_equal(a, b)

    def test_generator_passthrough(self):
        g = np.random.default_rng(0)
        assert ensure_rng(g) is g

    def test_none_gives_generator(self):
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_seed_sequence(self):
        ss = np.random.SeedSequence(3)
        a = ensure_rng(ss).random()
        b = ensure_rng(np.random.SeedSequence(3)).random()
        assert a == b


class TestSpawnRngs:
    def test_count(self):
        assert len(spawn_rngs(0, 4)) == 4

    def test_children_differ(self):
        a, b = spawn_rngs(0, 2)
        assert a.random() != b.random()

    def test_deterministic(self):
        a1, _ = spawn_rngs(9, 2)
        a2, _ = spawn_rngs(9, 2)
        assert a1.random() == a2.random()

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)

    def test_from_generator(self):
        children = spawn_rngs(np.random.default_rng(0), 3)
        assert len(children) == 3


class TestSeedSequenceFactory:
    def test_same_name_same_stream(self):
        f = SeedSequenceFactory(42)
        a = f.get("trace").random(3)
        b = SeedSequenceFactory(42).get("trace").random(3)
        np.testing.assert_array_equal(a, b)

    def test_different_names_differ(self):
        f = SeedSequenceFactory(42)
        assert f.get("a").random() != f.get("b").random()

    def test_order_independent(self):
        f1 = SeedSequenceFactory(1)
        _ = f1.get("x")
        y1 = f1.get("y").random()
        f2 = SeedSequenceFactory(1)
        y2 = f2.get("y").random()
        assert y1 == y2

    def test_root_seed_matters(self):
        assert SeedSequenceFactory(1).get("a").random() != SeedSequenceFactory(2).get("a").random()


class TestTextTable:
    def test_render_aligns_columns(self):
        t = TextTable(["model", "recall@20"])
        t.add_row(["CKAT", 0.3217])
        out = t.render()
        assert "CKAT" in out and "0.3217" in out

    def test_title(self):
        t = TextTable(["a"], title="Table X")
        t.add_row([1])
        assert t.render().startswith("Table X")

    def test_none_renders_dash(self):
        t = TextTable(["a"])
        t.add_row([None])
        assert "-" in t.render().splitlines()[-1]

    def test_wrong_arity_rejected(self):
        t = TextTable(["a", "b"])
        with pytest.raises(ValueError):
            t.add_row([1])

    def test_empty_headers_rejected(self):
        with pytest.raises(ValueError):
            TextTable([])

    def test_separator(self):
        t = TextTable(["alpha"])
        t.add_row([1])
        t.add_separator()
        t.add_row([2])
        # Header rule plus the explicit separator.
        assert sum(1 for line in t.render().splitlines() if set(line) <= {"-", "+"}) == 2

    def test_float_digits(self):
        t = TextTable(["a"], float_digits=2)
        t.add_row([0.12345])
        assert "0.12" in t.render()

    def test_format_float(self):
        assert format_float(0.123456) == "0.1235"
        assert format_float(0.1, 2) == "0.10"

    def test_str_equals_render(self):
        t = TextTable(["a"])
        t.add_row([1])
        assert str(t) == t.render()


class TestValidation:
    def test_check_positive(self):
        assert check_positive("x", 1.0) == 1.0
        with pytest.raises(ValueError, match="x"):
            check_positive("x", 0)

    def test_check_nonnegative(self):
        assert check_nonnegative("x", 0) == 0
        with pytest.raises(ValueError):
            check_nonnegative("x", -1)

    def test_check_probability(self):
        assert check_probability("p", 0.5) == 0.5
        with pytest.raises(ValueError):
            check_probability("p", 1.5)
        with pytest.raises(ValueError):
            check_probability("p", -0.1)

    def test_check_in_choices(self):
        assert check_in_choices("m", "a", ("a", "b")) == "a"
        with pytest.raises(ValueError, match="m"):
            check_in_choices("m", "c", ("a", "b"))
