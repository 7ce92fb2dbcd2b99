"""Per-rule coverage for reprolint: each RPLxxx catches its bad pattern and
stays quiet on the corresponding good idiom, including the path-policy and
lexical (no_grad / __init__) exemptions."""

import pathlib

import pytest

from repro.analysis.lint import (
    DEFAULT_CONFIG,
    LintConfig,
    all_rules,
    lint_file,
    lint_source,
    run_lint,
)

# Fixtures sit under tests/, which the default policy exempts from the
# randomness rules; strict config lifts that so fixtures lint like library code.
STRICT = LintConfig(exempt_paths=())

MODEL_PATH = "src/repro/models/mod.py"
NEUTRAL_PATH = "src/repro/facility/mod.py"

FIXTURES = pathlib.Path(__file__).parent / "fixtures" / "lint" / "models"


def codes(source, path=MODEL_PATH, config=STRICT):
    return [f.code for f in lint_source(source, path=path, config=config)]


# ----------------------------------------------------------------- RPL001/002
class TestRandomness:
    def test_legacy_global_call_flagged(self):
        src = "import numpy as np\nx = np.random.rand(3)\n"
        assert codes(src) == ["RPL001"]

    def test_global_seed_flagged(self):
        src = "import numpy as np\nnp.random.seed(0)\n"
        assert codes(src) == ["RPL001"]

    def test_unseeded_default_rng_flagged(self):
        src = "import numpy as np\nrng = np.random.default_rng()\n"
        assert codes(src) == ["RPL001"]

    def test_bare_reference_flagged_once(self):
        src = "import numpy as np\nshuffler = np.random.shuffle\n"
        assert codes(src) == ["RPL001"]

    def test_import_alias_resolved(self):
        src = "import numpy.random as npr\nx = npr.randint(0, 10)\n"
        assert codes(src) == ["RPL001"]

    def test_seeded_generator_methods_clean(self):
        src = "import numpy as np\nrng = np.random.default_rng(0)\nx = rng.random(3)\n"
        assert codes(src) == []

    def test_exempt_path_skips_randomness_rules(self):
        src = "import numpy as np\nx = np.random.rand(3)\n"
        assert codes(src, path="tests/test_mod.py", config=DEFAULT_CONFIG) == []

    def test_hardcoded_seed_in_function_flagged(self):
        src = (
            "import numpy as np\n"
            "def f(n):\n"
            "    return np.random.default_rng(0xC0FFEE).random(n)\n"
        )
        assert codes(src) == ["RPL002"]

    def test_rng_parameter_allows_seeded_construction(self):
        src = (
            "import numpy as np\n"
            "def f(n, rng):\n"
            "    return np.random.default_rng(7).random(n)\n"
        )
        assert codes(src) == []

    def test_nonconstant_seed_expression_allowed(self):
        src = (
            "import numpy as np\n"
            "def f(self, u):\n"
            "    return np.random.default_rng(self._root_seed + int(u))\n"
        )
        assert codes(src) == []

    def test_module_level_seeded_rng_allowed(self):
        # Deliberate, visible module-level tables are outside RPL002's scope.
        src = "import numpy as np\n_TABLE = np.random.default_rng(3).random(8)\n"
        assert codes(src) == []


# --------------------------------------------------------------------- RPL003
class TestWallClock:
    def test_time_time_flagged_in_models(self):
        src = "import time\ndef f():\n    return time.time()\n"
        assert codes(src) == ["RPL003"]

    def test_datetime_now_flagged(self):
        src = "import datetime\ndef f():\n    return datetime.datetime.now()\n"
        assert codes(src) == ["RPL003"]

    def test_perf_counter_allowed(self):
        src = "import time\ndef f():\n    return time.perf_counter()\n"
        assert codes(src) == []

    def test_telemetry_paths_unrestricted(self):
        src = "import time\ndef f():\n    return time.time()\n"
        assert codes(src, path="src/repro/utils/telemetry.py") == []


# --------------------------------------------------------------------- RPL004
class TestDtypeHygiene:
    def test_implicit_dtype_flagged(self):
        src = "import numpy as np\ndef f(n):\n    return np.zeros(n)\n"
        assert codes(src) == ["RPL004"]

    def test_keyword_dtype_clean(self):
        src = "import numpy as np\ndef f(n):\n    return np.zeros(n, dtype=np.float64)\n"
        assert codes(src) == []

    def test_positional_dtype_clean(self):
        src = "import numpy as np\ndef f(n):\n    return np.full(n, 0.0, np.float32)\n"
        assert codes(src) == []

    def test_like_constructors_clean(self):
        src = "import numpy as np\ndef f(x):\n    return np.zeros_like(x)\n"
        assert codes(src) == []

    def test_rule_scoped_to_dtype_paths(self):
        src = "import numpy as np\ndef f(n):\n    return np.zeros(n)\n"
        assert codes(src, path=NEUTRAL_PATH) == []

    def test_arange_flagged(self):
        src = "import numpy as np\ndef f(n):\n    return np.arange(n)\n"
        assert codes(src) == ["RPL004"]


# --------------------------------------------------------------------- RPL005
class TestNoPickle:
    def test_import_pickle_flagged(self):
        assert codes("import pickle\n") == ["RPL005"]

    def test_from_pickle_import_flagged(self):
        assert codes("from pickle import loads\n") == ["RPL005"]

    # np.save is pinned to the persistence funnel so RPL009 stays out of the
    # way and these assert RPL005 in isolation.
    def test_allow_pickle_true_flagged(self):
        src = "import numpy as np\ndef f(p, a):\n    np.save(p, a, allow_pickle=True)\n"
        assert codes(src, path="src/repro/io/mod.py") == ["RPL005"]

    def test_allow_pickle_false_clean(self):
        src = "import numpy as np\ndef f(p, a):\n    np.save(p, a, allow_pickle=False)\n"
        assert codes(src, path="src/repro/io/mod.py") == []


# --------------------------------------------------------------------- RPL006
class TestMutableDefaults:
    def test_list_default_flagged(self):
        assert codes("def f(x=[]):\n    return x\n") == ["RPL006"]

    def test_dict_kwonly_default_flagged(self):
        assert codes("def f(*, x={}):\n    return x\n") == ["RPL006"]

    def test_lambda_default_flagged(self):
        assert codes("g = lambda x=[]: x\n") == ["RPL006"]

    def test_constructor_call_default_flagged(self):
        assert codes("def f(x=dict()):\n    return x\n") == ["RPL006"]

    def test_none_default_clean(self):
        assert codes("def f(x=None):\n    return x or []\n") == []


# --------------------------------------------------------------------- RPL007
class TestTensorDataMutation:
    def test_augmented_mutation_flagged(self):
        src = "def f(t):\n    t.data += 1\n"
        assert codes(src) == ["RPL007"]

    def test_slice_assignment_flagged(self):
        src = "def f(t, a):\n    t.data[...] = a\n"
        assert codes(src) == ["RPL007"]

    def test_no_grad_block_exempt(self):
        src = (
            "from repro.autograd import no_grad\n"
            "def f(t, a):\n"
            "    with no_grad():\n"
            "        t.data[...] = a\n"
        )
        assert codes(src) == []

    def test_init_attribute_construction_exempt(self):
        src = (
            "class T:\n"
            "    def __init__(self, a):\n"
            "        self.data = a\n"
        )
        assert codes(src) == []

    def test_init_exemption_only_covers_self(self):
        src = (
            "class T:\n"
            "    def __init__(self, other, a):\n"
            "        other.data = a\n"
        )
        assert codes(src) == ["RPL007"]


# --------------------------------------------------------------------- RPL008
class TestDenseScatterGrad:
    GRAD_PATH = "src/repro/autograd/mod.py"

    def test_add_at_in_gradient_engine_flagged(self):
        src = "import numpy as np\nnp.add.at(buf, idx, grad)\n"
        assert codes(src, path=self.GRAD_PATH) == ["RPL008"]

    def test_alias_resolved(self):
        src = "import numpy\nnumpy.add.at(buf, idx, grad)\n"
        assert codes(src, path=self.GRAD_PATH) == ["RPL008"]

    def test_quiet_outside_gradient_engine(self):
        src = "import numpy as np\nnp.add.at(buf, idx, grad)\n"
        assert codes(src, path=NEUTRAL_PATH) == []
        assert codes(src, path=MODEL_PATH) == []

    def test_suppression_comment_honored(self):
        src = "import numpy as np\nnp.add.at(buf, idx, grad)  # reprolint: disable=RPL008\n"
        assert codes(src, path=self.GRAD_PATH) == []

    def test_reduceat_coalescing_clean(self):
        src = "import numpy as np\nout = np.add.reduceat(vals, starts, axis=0)\n"
        assert codes(src, path=self.GRAD_PATH) == []


# --------------------------------------------------------------------- RPL009
class TestAdHocPersistence:
    def test_savez_outside_funnel_flagged(self):
        src = "import numpy as np\nnp.savez(path, a=arr)\n"
        assert codes(src, path=NEUTRAL_PATH) == ["RPL009"]

    def test_load_outside_funnel_flagged(self):
        src = "import numpy as np\narrs = np.load(path)\n"
        assert codes(src, path=NEUTRAL_PATH) == ["RPL009"]

    def test_savez_compressed_and_save_flagged(self):
        src = (
            "import numpy as np\n"
            "np.save(path, arr)\n"
            "np.savez_compressed(path, a=arr)\n"
        )
        assert codes(src, path=NEUTRAL_PATH) == ["RPL009", "RPL009"]

    def test_alias_resolved(self):
        src = "import numpy\nnumpy.load(path)\n"
        assert codes(src, path=NEUTRAL_PATH) == ["RPL009"]

    def test_io_funnel_allowed(self):
        src = "import numpy as np\nnp.savez(path, a=arr)\nnp.load(path)\n"
        assert codes(src, path="src/repro/io/checkpoints.py") == []

    def test_store_funnel_allowed(self):
        src = "import numpy as np\nnp.save(path, arr)\nnp.load(path, mmap_mode='r')\n"
        assert codes(src, path="src/repro/store/artifacts.py") == []

    def test_memmap_family_flagged(self):
        src = (
            "import numpy as np\n"
            "buf = np.memmap(path, dtype=np.int64, mode='r')\n"
            "raw = np.fromfile(path, dtype=np.int64)\n"
        )
        assert codes(src, path=NEUTRAL_PATH) == ["RPL009", "RPL009"]

    def test_open_memmap_flagged(self):
        src = "import numpy as np\narr = np.lib.format.open_memmap(path, mode='r')\n"
        assert codes(src, path=NEUTRAL_PATH) == ["RPL009"]

    def test_memmap_family_allowed_in_funnel(self):
        src = (
            "import numpy as np\n"
            "buf = np.memmap(path, dtype=np.int64, mode='r')\n"
            "arr = np.lib.format.open_memmap(path, mode='r')\n"
        )
        assert codes(src, path="src/repro/store/artifacts.py") == []

    def test_exempt_path_skips_rule(self):
        src = "import numpy as np\nnp.load(path)\n"
        assert codes(src, path="tests/test_mod.py", config=DEFAULT_CONFIG) == []

    def test_suppression_comment_honored(self):
        src = "import numpy as np\nnp.load(path)  # reprolint: disable=RPL009\n"
        assert codes(src, path=NEUTRAL_PATH) == []

    def test_unrelated_numpy_calls_clean(self):
        src = "import numpy as np\nx = np.zeros(3, dtype=np.float64)\nnp.savetxt\n"
        assert codes(src, path=NEUTRAL_PATH) == []


# ---------------------------------------------------------------------- RPL015
class TestOptimizerFunnel:
    def test_optimizer_import_in_models_flagged(self):
        src = "from repro.autograd import Adam\n"
        assert codes(src) == ["RPL015"]

    def test_optim_module_import_flagged(self):
        src = "from repro.autograd.optim import SGD\n"
        assert codes(src) == ["RPL015"]

    def test_step_call_on_optimizer_name_flagged(self):
        src = "def f(optimizer):\n    optimizer.step()\n"
        assert codes(src) == ["RPL015"]

    def test_zero_grad_on_self_attr_flagged(self):
        src = "class M:\n    def g(self):\n        self.optim.zero_grad()\n"
        assert codes(src) == ["RPL015"]

    def test_engine_step_callable_clean(self):
        src = (
            "def extra_epoch_step(self, step, rng, config):\n"
            "    return step(lambda: self.loss(rng))\n"
        )
        assert codes(src) == []

    def test_non_optimizer_step_clean(self):
        src = "def f(scheduler):\n    scheduler.step()\n"
        assert codes(src) == []

    def test_other_autograd_imports_clean(self):
        src = "from repro.autograd import Parameter, Tensor, no_grad\n"
        assert codes(src) == []

    def test_outside_model_paths_clean(self):
        src = "from repro.autograd import Adam\ndef f(optimizer):\n    optimizer.step()\n"
        assert codes(src, path="src/repro/train/engine.py") == []

    def test_suppression_honored(self):
        src = "from repro.autograd import Adam  # reprolint: disable=RPL015\n"
        assert codes(src) == []


# ------------------------------------------------------------------- fixtures
BAD_FIXTURES = {
    "bad_randomness.py": {"RPL001", "RPL002"},
    "bad_wallclock.py": {"RPL003"},
    "bad_dtype.py": {"RPL004"},
    "bad_serialization.py": {"RPL005", "RPL009"},
    "bad_defaults.py": {"RPL006"},
    "bad_tensor_data.py": {"RPL007"},
}

GOOD_FIXTURES = [
    "good_randomness.py",
    "good_wallclock.py",
    "good_dtype.py",
    "good_tensor_data.py",
]


@pytest.mark.parametrize("name,expected", sorted(BAD_FIXTURES.items()))
def test_bad_fixture_caught(name, expected):
    found = {f.code for f in lint_file(FIXTURES / name, config=STRICT)}
    assert found == expected


@pytest.mark.parametrize("name", GOOD_FIXTURES)
def test_good_fixture_clean(name):
    assert lint_file(FIXTURES / name, config=STRICT) == []


def test_suppressed_fixture_clean():
    assert lint_file(FIXTURES / "suppressed.py", config=STRICT) == []


def test_fixture_suite_through_full_run():
    """The whole fixture directory through the one-pass engine, reporting
    the lexical family, yields exactly the per-file expectations above."""
    lexical = frozenset(rule.code for rule in all_rules())
    report = run_lint([FIXTURES], config=LintConfig(select=lexical, exempt_paths=()))
    found = {}
    for f in report.findings:
        found.setdefault(pathlib.Path(f.path).name, set()).add(f.code)
    assert found == BAD_FIXTURES
    assert report.files_checked == len(BAD_FIXTURES) + len(GOOD_FIXTURES) + 1
