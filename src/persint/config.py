"""Experiment configuration: a JSON schema with up-front validation.

A config file is a flat JSON object. ``experiment`` selects the recipe
(fig2, fig4 or mise, or "custom" for hand-driven stage runs); the
remaining keys parameterize it. Each key is declared once, as an
``ExperimentConfig`` field that carries its default, its rule and the
experiments whose recipe reads it (``_GENERATOR_RULES`` holds the rules of
the keys of ``generator``). A key that the config's experiment does not
read is a violation. All keys are checked before anything runs, and all
violations are reported together with their field paths. A missing master
seed defaults to 0; per-stage seeds are always derived from the master via
the documented child-seed rule."""

import json
import math
from dataclasses import asdict, dataclass, field, fields

from .errors import ConfigError
from .synth import POPULATIONS

DEFAULT_GENERATOR = {
    "kind": "field",
    "population": "uniform",
    "n": 60,
    "h": 0.25,
    "grid": [48, 48],
}

EXPERIMENTS = ("fig2", "fig4", "mise", "custom")


def _number(v, types=(int, float)):
    """Whether ``v`` is a finite number of ``types``; a bool is not a number."""
    if not isinstance(v, types) or isinstance(v, bool):
        return False
    return isinstance(v, int) or math.isfinite(v)  # an int may be too large for a float


def _items(v, size, item_ok):
    return isinstance(v, (list, tuple)) and len(v) == size and all(map(item_ok, v))


# A rule is (message, predicate); a value breaks it when the predicate is false.
def _at_least(lo):
    return f"must be an integer >= {lo}", lambda v: _number(v, int) and v >= lo


_POSITIVE = "must be a float > 0", lambda v: _number(v) and v > 0
_NONNEGATIVE = "must be a number >= 0", lambda v: _number(v) and not v < 0
_UNIT = "must lie in [0, 1]", lambda v: _number(v) and 0.0 <= v <= 1.0
_LEVEL = "must lie in (0, 1)", lambda v: _number(v) and 0.0 < v < 1.0
_GRID = "must be [nx, ny] with integer nx, ny >= 2", lambda v: _items(v, 2, _at_least(2)[1])
_ONE_THREAD = "must be 1 (trials run in one thread)", lambda v: _number(v, int) and v == 1
_SEED = "must be a 64-bit unsigned integer", lambda v: _number(v, int) and 0 <= v < 2**64
_BOUNDS = (
    "must be [x_lo, x_hi, y_lo, y_hi] with lo < hi",
    lambda v: _items(v, 4, _number) and v[0] < v[1] and v[2] < v[3],
)

# Keys of each generator kind; an absent key takes its diagram source's default.
_GENERATOR_RULES = {
    "field": {
        "grid": _GRID,
        "h": _POSITIVE,
        "n": _at_least(1),
        "population": (f"must be one of {POPULATIONS}", lambda v: v in POPULATIONS),
        "q": _UNIT,
    },
    "synthetic": {
        "mean_pairs": _POSITIVE,
        "birth_center": ("must be a number", _number),
        "birth_sd": _NONNEGATIVE,
        "life_mean": _POSITIVE,
    },
}
_KINDS = tuple(_GENERATOR_RULES)
_GENERATOR = (
    f"must be an object with kind {' or '.join(map(repr, _KINDS))}",
    lambda v: isinstance(v, dict) and v.get("kind") in _KINDS,
)

# Experiments whose recipe reads a key. "custom" configs describe hand-driven
# stage runs and take the keys of fig2's stages.
_STAGES = ("fig2", "fig4", "custom")
_FIG2 = ("fig2", "custom")


def _key(experiments, rule, default=None, each=False, required=False):
    """A config key read by ``experiments``, with its rule and whether that
    applies to each element of a nonempty list. An absent key takes its valid
    default; so does None where the default is None, unless the key is
    ``required``. "custom" configs require nothing."""
    meta = {"experiments": experiments, "rule": rule, "each": each, "required": required}
    if isinstance(default, (list, dict)):
        return field(default_factory=lambda: type(default)(default), metadata=meta)
    return field(default=default, metadata=meta)


# Fields are declared in report order: the order of the validator's messages.
@dataclass
class ExperimentConfig:
    experiment: str
    seed: int | None = _key(EXPERIMENTS, _SEED)
    threads: int = _key(EXPERIMENTS, _ONE_THREAD, 1)  # kept so existing configs validate
    out_dir: str | None = _key(EXPERIMENTS, ("must be a string", lambda v: isinstance(v, str)))
    save_intermediates: bool = _key(
        _FIG2, ("must be true or false", lambda v: isinstance(v, bool)), True
    )
    # pipeline stages: fig2 reads them all, fig4 those up to intensity_grid
    n: int | None = _key(_STAGES, _at_least(1), required=True)
    N: int | None = _key(_STAGES, _at_least(1), required=True)
    h: float | None = _key(_STAGES, _POSITIVE, required=True)
    tau: float | None = _key(_STAGES, _POSITIVE, required=True)
    field_grid: list = _key(_STAGES, _GRID, [128, 128])
    intensity_grid: list = _key(_STAGES, _GRID, [128, 128])
    field_bounds: list | None = _key(_FIG2, _BOUNDS)
    max_dim: int = _key(_FIG2, ("must be 0 or 1", lambda v: _number(v) and v in (0, 1)), 1)
    g0: float = _key(_FIG2, _NONNEGATIVE, 1.0)
    g1: float = _key(_FIG2, _NONNEGATIVE, 1.0)
    # fig4 sweep
    q_values: list | None = _key(("fig4",), _UNIT, each=True, required=True)
    B: int | None = _key(("fig4",), _at_least(1), required=True)
    trials: int | None = _key(("fig4",), _at_least(1), required=True)
    alphas: list = _key(("fig4",), _LEVEL, [0.05, 0.01], each=True)
    # mise sweep
    N_values: list | None = _key(("mise",), _at_least(1), each=True, required=True)
    tau_scale: float | None = _key(("mise",), _POSITIVE, required=True)
    reps: int | None = _key(("mise",), _at_least(1), required=True)
    N_ref: int | None = _key(("mise",), _at_least(2))
    tau_ref: float | None = _key(("mise",), _POSITIVE)
    generator: dict = _key(("mise",), _GENERATOR, DEFAULT_GENERATOR)

    def master_seed(self):
        return 0 if self.seed is None else int(self.seed)

    def seed_note(self):
        if self.seed is None:
            return "seed absent from config; master seed defaulted to 0"
        return f"master seed {int(self.seed)} from config"

    def to_dict(self):
        return asdict(self)


# The fields each experiment reads, in report order, and their names.
_READ = {
    exp: [f for f in fields(ExperimentConfig)[1:] if exp in f.metadata["experiments"]]
    for exp in EXPERIMENTS
}
_READ_NAMES = {exp: {"experiment", *(f.name for f in keys)} for exp, keys in _READ.items()}


def _largest_n(raw):
    nvs = raw.get("N_values")
    whole = isinstance(nvs, list) and nvs and all(isinstance(v, int) for v in nvs)
    return max(nvs) if whole else -math.inf


def validate_config_dict(raw):
    """All constraint violations of a raw config mapping, with field paths."""
    if not isinstance(raw, dict):
        return ["config root must be a JSON object"]
    exp = raw.get("experiment")
    if exp not in EXPERIMENTS:
        return [f"experiment: must be one of {EXPERIMENTS}, got {exp!r}"]
    errors = [f"{key}: not read by experiment {exp!r}"
              for key in sorted(set(raw) - _READ_NAMES[exp])]
    keys = _READ[exp]
    missing = [f.name for f in keys if f.metadata["required"] and raw.get(f.name) is None]
    errors += [f"{key}: required for experiment {exp!r}" for key in missing if exp != "custom"]

    for f in keys:
        key, (message, ok), each = f.name, f.metadata["rule"], f.metadata["each"]
        value = raw.get(key)
        if key not in raw or (value is None and f.default is None):
            continue
        if each and not (isinstance(value, list) and value):
            errors.append(f"{key}: must be a nonempty list, got {value!r}")
        elif each:
            bad = [(i, v) for i, v in enumerate(value) if not ok(v)]
            errors += [f"{key}[{i}]: {message}, got {v!r}" for i, v in bad]
            if not bad:
                errors += [f"{key}[{i}]: repeats an earlier entry, got {v!r}"
                           for i, v in enumerate(value) if v in value[:i]]
        elif not ok(value):
            errors.append(f"{key}: {message}, got {value!r}")
        elif key == "N_ref" and value <= _largest_n(raw):
            errors.append(f"N_ref: must exceed the largest N in N_values, got {value!r}")
        elif key == "generator":
            kind_rules = _GENERATOR_RULES[value["kind"]]
            errors += [f"generator.{k}: unknown configuration key"
                       for k in sorted(set(value) - set(kind_rules) - {"kind"})]
            for k, (m, ok) in kind_rules.items():
                if k in value and not ok(value[k]):
                    errors.append(f"generator.{k}: {m}, got {value[k]!r}")
    return errors


def config_from_dict(raw):
    """Build a validated ExperimentConfig; raises ConfigError with all violations."""
    errors = validate_config_dict(raw)
    if errors:
        raise ConfigError(errors)
    return ExperimentConfig(**raw)


def _expect_experiment(config, name):
    if config.experiment != name:
        raise ConfigError([f"experiment: must be {name!r}, got {config.experiment!r}"])


def _read_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError([f"cannot read {path}: {exc}"]) from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError([f"{path} is not valid JSON: {exc}"]) from None


def load_config(path, seed=None):
    """Load and validate a config file; raises ConfigError on any violation.
    A ``seed`` that is not None replaces the config's before validation."""
    raw = _read_json(path)
    if isinstance(raw, dict) and seed is not None:
        raw["seed"] = seed
    return config_from_dict(raw)

