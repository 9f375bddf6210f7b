"""Run configuration: strict JSON parsing, validation, and overrides.

A config file is a JSON object with sections model / mask / augment /
optimizer / schedule / train / data. Unknown keys anywhere are rejected.
Command-line overrides apply after parsing; keys may be given as full
dotted paths ("mask.mask_ratio=0.4") or, when unambiguous, as a bare field
name ("mask_ratio=0.4").
"""

import json
from dataclasses import dataclass, field

from .augment import AugmentConfig
from .mim import MaskSpec
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

    def to_dict(self):
        return dict(base_lr=self.base_lr, beta1=self.beta1, beta2=self.beta2,
                    eps=self.eps, weight_decay=self.weight_decay)


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

    def to_dict(self):
        return dict(epochs=self.epochs, warmup_steps=self.warmup_steps, min_lr=self.min_lr)


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

    def to_dict(self):
        return dict(batch_size=self.batch_size, mask_in_finetune=self.mask_in_finetune,
                    early_stop_acc=self.early_stop_acc, checkpoint_every=self.checkpoint_every,
                    log_every=self.log_every)


@dataclass
class DataConfig:
    mean: tuple = (0.5, 0.5, 0.5)
    std: tuple = (0.5, 0.5, 0.5)
    train_fraction: float = 0.8

    def validate(self):
        if len(self.mean) != 3 or len(self.std) != 3 or any(s <= 0 for s in self.std):
            raise ConfigError("mean/std must be 3-vectors with positive std")
        if not 0 < self.train_fraction < 1:
            raise ConfigError("train_fraction must lie in (0, 1)")
        return self

    def to_dict(self):
        return dict(mean=list(self.mean), std=list(self.std),
                    train_fraction=self.train_fraction)


@dataclass
class MaskConfig:
    mask_patch_size: int = 32
    mask_ratio: float = 0.5
    target_factor: int = 32

    def validate(self):
        MaskSpec(self.mask_patch_size, self.mask_ratio).validate()
        if self.target_factor not in (2, 4, 8, 16, 32):
            raise ConfigError(f"target_factor {self.target_factor} not in {{2,4,8,16,32}}")
        return self

    def spec(self, seed=0):
        return MaskSpec(self.mask_patch_size, self.mask_ratio, seed)

    def to_dict(self):
        return dict(mask_patch_size=self.mask_patch_size, mask_ratio=self.mask_ratio,
                    target_factor=self.target_factor)


_SECTIONS = {
    "model": SwinConfig,
    "mask": MaskConfig,
    "augment": AugmentConfig,
    "optimizer": OptimConfig,
    "schedule": ScheduleConfig,
    "train": TrainConfig,
    "data": DataConfig,
}


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
        return self

    def to_dict(self):
        return {name: getattr(self, name).to_dict() for name in _SECTIONS}


def _build_section(cls, data, section_name):
    fields = {f for f in cls.__dataclass_fields__}
    unknown = set(data) - fields
    if unknown:
        raise ConfigError(f"unknown keys in section '{section_name}': {sorted(unknown)}")
    kwargs = {k: tuple(v) if isinstance(v, list) else v for k, v in data.items()}
    return cls(**kwargs)


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
_JSON_TYPES = {bool: (bool,), int: (int,), float: (int, float), tuple: (list,)}


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
    spec = type(section).__dataclass_fields__[field_name]
    accepted = _JSON_TYPES[spec.type]
    fits = isinstance(value, accepted) and (bool in accepted or not isinstance(value, bool))
    if not fits and not (value is None and spec.default is None):
        raise ConfigError(f"override {key!r} needs a JSON "
                          f"{'array' if spec.type is tuple else spec.type.__name__}, got {value!r}")
    if isinstance(value, list):
        value = tuple(value)
    setattr(section, field_name, value)
