"""Run configuration: strict JSON parsing, validation, and overrides.

A config file is a JSON object with sections model / mask / augment /
optimizer / schedule / train / data. Unknown keys anywhere are rejected.
Command-line overrides apply after parsing; keys may be given as full
dotted paths ("mask.mask_ratio=0.4") or, when unambiguous, as a bare field
name ("mask_ratio=0.4").
"""

import json
from dataclasses import dataclass, field, fields, is_dataclass
from typing import get_args, get_origin

from .augment import AugmentConfig
from .data import NUM_CLASSES
from .mim import TARGET_FACTORS, MaskSpec
from .swin import ConfigError, SwinConfig


@dataclass
class OptimConfig:
    base_lr: float = 8e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.05

    def validate(self):
        if self.base_lr < 0 or self.eps <= 0:
            raise ConfigError("base_lr must be >= 0 and eps > 0")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ConfigError("betas must lie in [0, 1)")
        if self.weight_decay < 0:
            raise ConfigError("weight_decay must be >= 0")
        return self


@dataclass
class ScheduleConfig:
    epochs: int = 110
    warmup_steps: int = 0
    min_lr: float = None  # None -> base_lr / 100

    def validate(self):
        if self.epochs < 1 or self.warmup_steps < 0:
            raise ConfigError("epochs must be >= 1 and warmup_steps >= 0")
        if self.min_lr is not None and self.min_lr < 0:
            raise ConfigError("min_lr must be >= 0")
        return self


@dataclass
class TrainConfig:
    batch_size: int = 32
    mask_in_finetune: bool = True
    early_stop_acc: float = None
    checkpoint_every: int = 1  # epochs between checkpoints
    log_every: int = 1  # steps between pretrain loss-log records

    def validate(self):
        if self.batch_size < 1 or self.checkpoint_every < 1 or self.log_every < 1:
            raise ConfigError("batch_size, checkpoint_every, log_every must be >= 1")
        if self.early_stop_acc is not None and not 0 < self.early_stop_acc <= 1:
            raise ConfigError("early_stop_acc must lie in (0, 1]")
        return self


@dataclass
class DataConfig:
    mean: tuple[float, ...] = (0.5, 0.5, 0.5)
    std: tuple[float, ...] = (0.5, 0.5, 0.5)
    train_fraction: float = 0.8

    def validate(self):
        if len(self.mean) != 3 or len(self.std) != 3 or any(s <= 0 for s in self.std):
            raise ConfigError("mean/std must be 3-vectors with positive std")
        if not 0 < self.train_fraction < 1:
            raise ConfigError("train_fraction must lie in (0, 1)")
        return self


@dataclass
class MaskConfig:
    mask_patch_size: int = 32
    mask_ratio: float = 0.5
    target_factor: int = 32

    def validate(self):
        MaskSpec(self.mask_patch_size, self.mask_ratio).validate()
        if self.target_factor not in TARGET_FACTORS:
            raise ConfigError(f"target_factor {self.target_factor} not in {TARGET_FACTORS}")
        return self

    def spec(self, seed=0):
        return MaskSpec(self.mask_patch_size, self.mask_ratio, seed)


@dataclass
class RunConfig:
    model: SwinConfig = field(default_factory=SwinConfig)
    mask: MaskConfig = field(default_factory=MaskConfig)
    augment: AugmentConfig = field(default_factory=AugmentConfig)
    optimizer: OptimConfig = field(default_factory=OptimConfig)
    schedule: ScheduleConfig = field(default_factory=ScheduleConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    data: DataConfig = field(default_factory=DataConfig)

    def validate(self):
        for name in _SECTIONS:
            section = getattr(self, name)
            try:
                section.validate()
            except ValueError as e:
                raise ConfigError(f"{name}: {e}") from e
        # the dataset has classes c0..c9 of RGB images, normalized by data.mean/std
        if self.model.num_classes != NUM_CLASSES:
            raise ConfigError(f"model.num_classes {self.model.num_classes} != "
                              f"the dataset's {NUM_CLASSES} classes")
        if self.model.in_channels != len(self.data.mean):
            raise ConfigError(f"model.in_channels {self.model.in_channels} != "
                              f"the {len(self.data.mean)} image channels of data.mean")
        # masks are drawn for pretraining and for masked fine-tune input alike
        if self.mask.mask_patch_size > self.model.img_size:
            raise ConfigError(f"mask.mask_patch_size {self.mask.mask_patch_size} > "
                              f"model.img_size {self.model.img_size}: no mask unit fits")
        return self

    def to_dict(self):
        return _to_json(self)


# section name -> section class, in declaration (and validation) order
_SECTIONS = {f.name: f.type for f in fields(RunConfig)}


def _to_json(value):
    """A config dataclass as a JSON-ready dict of its fields in declaration
    order, sections included; tuples become lists."""
    if is_dataclass(value):
        return {f.name: _to_json(getattr(value, f.name)) for f in fields(value)}
    return list(value) if isinstance(value, tuple) else value


def _build_section(cls, data, section_name):
    unknown = set(data) - set(cls.__dataclass_fields__)
    if unknown:
        raise ConfigError(f"unknown keys in section '{section_name}': {sorted(unknown)}")
    return cls(**{k: _checked(cls, k, v, f"{section_name}.{k}") for k, v in data.items()})


def config_from_dict(data):
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(data) - set(_SECTIONS)
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")
    sections = {}
    for name, cls in _SECTIONS.items():
        raw = data.get(name, {})
        if not isinstance(raw, dict):
            raise ConfigError(f"section '{name}' must be a JSON object")
        sections[name] = _build_section(cls, raw, name)
    return RunConfig(**sections)


def load_config(path):
    try:
        with open(path, encoding="utf-8") as f:
            data = json.load(f)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: invalid JSON: {e}") from e
    return config_from_dict(data)


def apply_overrides(config, overrides):
    """Apply key=value strings; values parse as JSON, else as strings."""
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        key, raw_value = item.split("=", 1)
        try:
            value = json.loads(raw_value)
        except json.JSONDecodeError:
            value = raw_value
        _set_field(config, key.strip(), value)
    return config


# The JSON types a field of each annotated type accepts (bool is not a number);
# every section field is annotated with one of these.
_JSON_TYPES = {bool: (bool,), int: (int,), float: (int, float),
               tuple[int, ...]: (list,), tuple[float, ...]: (list,)}


def _fits(value, kind):
    """Whether a JSON value fits a field annotated `kind`: an array fits
    tuple[T, ...] when each of its elements fits T."""
    if not isinstance(value, _JSON_TYPES[kind]) or (isinstance(value, bool) and kind is not bool):
        return False
    return get_origin(kind) is not tuple or all(_fits(v, get_args(kind)[0]) for v in value)


def _checked(cls, field_name, value, what):
    """value for field_name of section class cls, if its JSON type fits (a
    list becomes a tuple); else a ConfigError that starts with `what`."""
    spec = cls.__dataclass_fields__[field_name]
    if not _fits(value, spec.type) and not (value is None and spec.default is None):
        kind = (f"array of {get_args(spec.type)[0].__name__}" if get_origin(spec.type) is tuple
                else spec.type.__name__)
        raise ConfigError(f"{what} needs a JSON {kind}, got {value!r}")
    return tuple(value) if isinstance(value, list) else value


def _set_field(config, key, value):
    if "." in key:
        section_name, field_name = key.split(".", 1)
        if section_name not in _SECTIONS:
            raise ConfigError(f"unknown config section {section_name!r}")
        section = getattr(config, section_name)
        if field_name not in type(section).__dataclass_fields__:
            raise ConfigError(f"unknown key {field_name!r} in section {section_name!r}")
    else:
        matches = [
            name for name, cls in _SECTIONS.items()
            if key in cls.__dataclass_fields__
        ]
        if not matches:
            raise ConfigError(f"unknown override key {key!r}")
        if len(matches) > 1:
            raise ConfigError(
                f"ambiguous override key {key!r} (sections {matches}); use section.key"
            )
        section_name, field_name = matches[0], key
        section = getattr(config, section_name)
    setattr(section, field_name, _checked(type(section), field_name, value, f"override {key!r}"))
