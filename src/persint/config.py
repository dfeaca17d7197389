"""Experiment configuration: a JSON schema with up-front validation.

A config file is a flat JSON object. ``experiment`` selects the recipe
(fig2, fig4, or mise); the remaining keys parameterize the stages. Each
key's constraint is one row of ``_RULES`` (of ``_GENERATOR_RULES`` for the
keys of ``generator``); all are checked before anything runs, and all
violations are reported together with their field paths. A missing master
seed defaults to 0; per-stage seeds are always derived from the master
via the documented child-seed rule.
"""

import json
import math
from dataclasses import asdict, dataclass, field, fields

from .errors import ConfigError
from .field import _write_json
from .synth import POPULATIONS

DEFAULT_GENERATOR = {
    "kind": "field",
    "population": "uniform",
    "n": 60,
    "h": 0.25,
    "grid": [48, 48],
}

EXPERIMENTS = ("fig2", "fig4", "mise", "custom")


@dataclass
class ExperimentConfig:
    experiment: str
    seed: int | None = None
    out_dir: str | None = None
    threads: int = 1
    save_intermediates: bool = True
    # pipeline stages (fig2 and fig4)
    n: int | None = None
    N: int | None = None
    h: float | None = None
    tau: float | None = None
    field_grid: list = field(default_factory=lambda: [128, 128])
    field_bounds: list | None = None
    intensity_grid: list = field(default_factory=lambda: [128, 128])
    max_dim: int = 1
    g0: float = 1.0
    g1: float = 1.0
    # fig4 sweep
    q_values: list | None = None
    B: int | None = None
    trials: int | None = None
    alphas: list = field(default_factory=lambda: [0.05, 0.01])
    # mise sweep
    N_values: list | None = None
    tau_scale: float | None = None
    reps: int | None = None
    N_ref: int | None = None
    tau_ref: float | None = None
    generator: dict = field(default_factory=lambda: dict(DEFAULT_GENERATOR))

    def master_seed(self):
        return 0 if self.seed is None else int(self.seed)

    def seed_note(self):
        if self.seed is None:
            return "seed absent from config; master seed defaulted to 0"
        return f"master seed {int(self.seed)} from config"

    def to_dict(self):
        return asdict(self)

    def save(self, path):
        _write_json(path, self.to_dict())


_FIELD_NAMES = {f.name for f in fields(ExperimentConfig)}
# An absent key takes its default, which is valid; so does None where the
# default is None. Neither is checked. A key with a None default is required
# by the experiments that check it, unless it is optional; "custom" configs
# describe hand-driven stage runs and require nothing.
_NONE_DEFAULTS = {f.name for f in fields(ExperimentConfig) if f.default is None}
_OPTIONAL = {"seed", "out_dir", "field_bounds", "N_ref", "tau_ref"}


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

_ALL = EXPERIMENTS
_STAGES = ("fig2", "fig4", "custom")
# key: (experiments that check it, rule, whether the rule applies to each
# element of a nonempty list), in report order.
_RULES = {
    "seed": (_ALL, _SEED, False),
    "threads": (_ALL, _at_least(1), False),
    "out_dir": (_ALL, ("must be a string", lambda v: isinstance(v, str)), False),
    "save_intermediates": (_ALL, ("must be true or false", lambda v: isinstance(v, bool)), False),
    "n": (_STAGES, _at_least(1), False),
    "N": (_STAGES, _at_least(1), False),
    "h": (_STAGES, _POSITIVE, False),
    "tau": (_STAGES, _POSITIVE, False),
    "field_grid": (_STAGES, _GRID, False),
    "intensity_grid": (_STAGES, _GRID, False),
    "field_bounds": (_STAGES, _BOUNDS, False),
    "max_dim": (_STAGES, ("must be 0 or 1", lambda v: _number(v) and v in (0, 1)), False),
    "g0": (_STAGES, _NONNEGATIVE, False),
    "g1": (_STAGES, _NONNEGATIVE, False),
    "q_values": (("fig4",), _UNIT, True),
    "B": (("fig4",), _at_least(1), False),
    "trials": (("fig4",), _at_least(1), False),
    "alphas": (("fig4",), _LEVEL, True),
    "N_values": (("mise",), _at_least(1), True),
    "tau_scale": (("mise",), _POSITIVE, False),
    "reps": (("mise",), _at_least(1), False),
    "N_ref": (("mise",), _at_least(2), False),
    "tau_ref": (("mise",), _POSITIVE, False),
    "generator": (("mise",), _GENERATOR, False),
}


def _unknown(keys, prefix=""):
    return [f"{prefix}{key}: unknown configuration key" for key in sorted(keys)]


def _largest_n(raw):
    nvs = raw.get("N_values")
    whole = isinstance(nvs, list) and nvs and all(isinstance(v, int) for v in nvs)
    return max(nvs) if whole else -math.inf


def validate_config_dict(raw):
    """All constraint violations of a raw config mapping, with field paths."""
    if not isinstance(raw, dict):
        return ["config root must be a JSON object"]
    errors = _unknown(set(raw) - _FIELD_NAMES)
    exp = raw.get("experiment")
    if exp not in EXPERIMENTS:
        return errors + [f"experiment: must be one of {EXPERIMENTS}, got {exp!r}"]
    rules = {key: row for key, (experiments, *row) in _RULES.items() if exp in experiments}
    required = set() if exp == "custom" else _NONE_DEFAULTS - _OPTIONAL
    missing = [key for key in rules if key in required and raw.get(key) is None]
    errors += [f"{key}: required for experiment {exp!r}" for key in missing]

    for key, ((message, ok), each) in rules.items():
        value = raw.get(key)
        if key not in raw or (value is None and key in _NONE_DEFAULTS):
            continue
        if each and not (isinstance(value, list) and value):
            errors.append(f"{key}: must be a nonempty list, got {value!r}")
        elif each:
            bad = [(i, v) for i, v in enumerate(value) if not ok(v)]
            errors += [f"{key}[{i}]: {message}, got {v!r}" for i, v in bad]
        elif not ok(value):
            errors.append(f"{key}: {message}, got {value!r}")
        elif key == "N_ref" and value <= _largest_n(raw):
            errors.append(f"N_ref: must exceed the largest N in N_values, got {value!r}")
        elif key == "generator":
            kind_rules = _GENERATOR_RULES[value["kind"]]
            errors += _unknown(set(value) - set(kind_rules) - {"kind"}, "generator.")
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


def _read_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError([f"cannot read {path}: {exc}"]) from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError([f"{path} is not valid JSON: {exc}"]) from None


def load_config(path):
    """Load and validate a config file; raises ConfigError on any violation."""
    return config_from_dict(_read_json(path))


def validate_config(path):
    """All violations in a config file (empty list means valid)."""
    try:
        return validate_config_dict(_read_json(path))
    except ConfigError as exc:
        return exc.errors
