"""Experiment configuration: a plain-text key = value file plus overrides."""

from __future__ import annotations

from dataclasses import dataclass, fields

from .dictlearn import MODES, TrainParams, check_field_types
from .synth import SynthSpec

DECISIONS = ("bbmap", "bbll")


@dataclass(frozen=True)
class ExperimentConfig:
    roi_size: int = 64
    block_sizes: tuple[int, ...] = (16,)
    k_folds: int = 10
    dl_mode: str = "none"
    decision: str = "bbll"
    dict_size: int = 0  # K; 0 means one atom per training sample
    sparsity: int = TrainParams.T
    alpha: float = TrainParams.alpha
    beta: float = TrainParams.beta
    iterations: int = TrainParams.iterations
    eps_rel: float = 0.05  # eps = eps_rel * ||block||
    eps_abs: float = 0.0  # when > 0, overrides the relative rule
    tau: float = 0.0
    seed: int = 20
    invert_lls: bool = False
    data_dir: str = ""
    output_dir: str = "results"
    synthetic: bool = False
    synth_atoms_per_class: int = SynthSpec.atoms_per_class
    synth_sparsity: int = SynthSpec.sparsity
    synth_noise_sigma: float = SynthSpec.noise_sigma
    synth_samples_per_class: int = SynthSpec.samples_per_class

    def __post_init__(self):
        check_field_types(self, "config key")
        for key in ("roi_size", "sparsity", "iterations"):
            if getattr(self, key) <= 0:
                raise ValueError(f"config key {key} must be positive, got {getattr(self, key)}")
        for key in ("alpha", "beta", "eps_rel", "eps_abs", "seed"):
            if getattr(self, key) < 0:
                raise ValueError(f"config key {key} must be >= 0, got {getattr(self, key)}")
        if self.dict_size < 0 or self.dict_size == 1:
            raise ValueError(f"config key dict_size must be 0 (one atom per training sample) or >= 2, "
                             f"got {self.dict_size}")
        if self.k_folds < 2:
            raise ValueError("k_folds must be >= 2")
        if not self.block_sizes:
            raise ValueError("at least one block size required")
        for i, b in enumerate(self.block_sizes):
            if b < 1 or self.roi_size % b != 0:
                raise ValueError(f"block size {b} does not divide roi_size {self.roi_size}")
            if b in self.block_sizes[:i]:
                raise ValueError(f"config key block_sizes lists block size {b} twice")
        if self.dl_mode not in MODES:
            raise ValueError(f"dl_mode must be one of {MODES}, got {self.dl_mode!r}")
        if self.decision not in DECISIONS:
            raise ValueError(f"decision must be one of {DECISIONS}, got {self.decision!r}")
        if self.eps_rel <= 0 and self.eps_abs <= 0:
            raise ValueError("one of eps_rel / eps_abs must be positive")

    def train_params(self) -> TrainParams:
        return TrainParams(
            K=self.dict_size if self.dict_size > 0 else None,
            T=self.sparsity,
            alpha=self.alpha,
            beta=self.beta,
            iterations=self.iterations,
            seed=self.seed,
        )

    def synth_spec(self) -> SynthSpec:
        return SynthSpec(
            roi_size=self.roi_size,
            block_size=self.block_sizes[0],
            atoms_per_class=self.synth_atoms_per_class,
            sparsity=self.synth_sparsity,
            noise_sigma=self.synth_noise_sigma,
            samples_per_class=self.synth_samples_per_class,
        )

    def echo(self) -> dict:
        """Semantic fields only; paths are excluded so reports stay
        byte-identical across machines."""
        skip = {"data_dir", "output_dir"}
        out = {}
        for f in fields(self):
            if f.name in skip:
                continue
            v = getattr(self, f.name)
            out[f.name] = list(v) if isinstance(v, tuple) else v
        return out


_BOOL = {"true": True, "false": False, "1": True, "0": False, "yes": True, "no": False}

# per key type: what a value must be, and how to read one
_PARSERS = {
    bool: ("a boolean", lambda raw: _BOOL[raw.lower()]),
    int: ("an integer", int),
    float: ("a number", float),
    str: ("a string", str),
    tuple: ("integers", lambda raw: tuple(int(tok) for tok in raw.replace(",", " ").split())),
}


def _coerce(where: str, name: str, raw: str, target_type):
    raw = raw.strip()
    expected, parse = _PARSERS[target_type]
    try:
        return parse(raw)
    except (KeyError, ValueError):
        raise ValueError(f"{where}: key {name}: expected {expected}, got {raw!r}") from None


def parse_config_text(text: str, overrides: dict | None = None) -> ExperimentConfig:
    """Parse ``key = value`` lines ('#' comments allowed) into an
    ``ExperimentConfig``, whose defaults give each key's type. A key may be
    set on one line only; ``overrides`` win over the text. An override given
    as text, as a command-line flag gives it, is read as a config line's
    value is; a typed one is taken as it is (a list as a tuple)."""
    type_map = {f.name: type(f.default) for f in fields(ExperimentConfig)}
    values: dict = {}
    seen: dict[str, int] = {}  # the line that set each key
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ValueError(f"config line {lineno}: expected 'key = value', got {body!r}")
        key, raw = (part.strip() for part in body.split("=", 1))
        if key not in type_map:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ValueError(f"config line {lineno}: key {key} repeats line {seen[key]}")
        seen[key] = lineno
        values[key] = _coerce(f"config line {lineno}", key, raw, type_map[key])
    if overrides:
        for key, val in overrides.items():
            if val is None:
                continue
            if key not in type_map:
                raise ValueError(f"unknown config key {key!r}")
            if isinstance(val, str) and type_map[key] is not str:
                val = _coerce("override", key, val, type_map[key])
            values[key] = tuple(val) if isinstance(val, list) else val
    return ExperimentConfig(**values)


def load_config(path: str | None, overrides: dict | None = None) -> ExperimentConfig:
    text = ""
    if path:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    return parse_config_text(text, overrides)
