"""Run configuration: a flat INI-style key-value format with named sections.

Shared blocks:

    [model]                  n = 1
                             sigma = 1.0
    [theta]                  lo = -3
                             hi = 3
    [loss NAME]              kind = power | scaled | sum | huber
                             p = 2          c = 1        (power)
                             factor = 7     inner = NAME (scaled)
                             terms = NAME1, NAME2        (sum)
                             k = 1.0                     (huber)
    [estimator NAME]         kind = affine_mean | sample_median | sign_perturbed
                             gamma = 1      beta = 0
                             base = NAME    epsilon = 0.1  theta_star = 0
    [family]                 kind = affine_mean | median_shift
                             gamma_lo/gamma_hi, beta_lo/beta_hi
    [run]                    seed = 42

Losses and estimators compose by reference to other named sections.
Command-specific sections ([risk], [minimax], [exclusivity], [shift_risk],
[classify]) are read by the CLI.  Every section rejects a key it does not
take, so a misspelling is a config error rather than a default.  The
format is plain text: diffable and hashable, and the output headers record
the config's SHA-256.
"""

from __future__ import annotations

import configparser
import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from .errors import ConfigError
from .losses import Huber, LossSpec, Power, Scaled, SumLoss
from .minimax import AffineMeanFamily, FamilySpec, MedianShiftFamily
from .model import (
    AffineMean,
    EstimatorSpec,
    GaussianLocationModel,
    Interval,
    SampleMedian,
    SignPerturbed,
)

LOSS_PREFIX = "loss "
ESTIMATOR_PREFIX = "estimator "

# The keys each kind of [loss NAME], [estimator NAME] and [family] takes
# beside `kind`.
_LOSS_KEYS = {"power": ("p", "c"), "scaled": ("factor", "inner"), "sum": ("terms",),
              "huber": ("k",)}
_ESTIMATOR_KEYS = {"affine_mean": ("gamma", "beta"), "sample_median": ("beta",),
                   "sign_perturbed": ("base", "epsilon", "theta_star")}
_FAMILY_KEYS = {"affine_mean": ("gamma_lo", "gamma_hi", "beta_lo", "beta_hi"),
                "median_shift": ("beta_lo", "beta_hi")}


@dataclass
class RunConfig:
    model: GaussianLocationModel
    theta_interval: Interval
    losses: Dict[str, LossSpec]
    estimators: Dict[str, EstimatorSpec]
    family: Optional[FamilySpec]
    seed: Optional[int]
    sha256: str
    _parser: configparser.ConfigParser

    def section(self, name: str) -> "SectionView":
        if not self._parser.has_section(name):
            raise ConfigError(f"missing [{name}] section")
        return SectionView(name, self._parser[name])

    def has_section(self, name: str) -> bool:
        return self._parser.has_section(name)

    def loss(self, name: str) -> LossSpec:
        if name not in self.losses:
            raise ConfigError(f"unknown loss {name!r}; define a [loss {name}] section")
        return self.losses[name]

    def estimator(self, name: str) -> EstimatorSpec:
        if name not in self.estimators:
            raise ConfigError(
                f"unknown estimator {name!r}; define an [estimator {name}] section"
            )
        return self.estimators[name]


class SectionView:
    """Typed access to one section with errors that name section and key."""

    def __init__(self, name: str, proxy):
        self.name = name
        self._proxy = proxy

    def has(self, key: str) -> bool:
        return key in self._proxy

    def reject_unknown(self, known: Sequence[str]) -> None:
        """Raise on a key not in `known`, so a misspelling is not ignored."""
        for key in self._proxy:
            if key not in known:
                raise ConfigError(f"[{self.name}] has unknown key {key!r}")

    def kind(self, keys_by_kind: Dict[str, Sequence[str]], what: str) -> str:
        """The section's `kind`, once it is known and every other key is one
        that kind takes."""
        kind = self.str("kind")
        if kind not in keys_by_kind:
            raise ConfigError(f"[{self.name}] kind = {kind!r} is not {what} kind")
        self.reject_unknown(("kind", *keys_by_kind[kind]))
        return kind

    def str(self, key: str, default: Optional[str] = None) -> str:
        if key not in self._proxy:
            if default is not None:
                return default
            raise ConfigError(f"[{self.name}] is missing key {key!r}")
        return self._proxy[key].strip()

    def float(self, key: str, default: Optional[float] = None) -> float:
        raw = self.str(key, None if default is None else repr(default))
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"[{self.name}] {key} = {raw!r} is not a number") from None

    def int(self, key: str, default: Optional[int] = None) -> int:
        raw = self.str(key, None if default is None else str(default))
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"[{self.name}] {key} = {raw!r} is not an integer") from None

    def floats(self, key: str) -> List[float]:
        raw = self.str(key)
        try:
            return [float(tok) for tok in raw.replace(",", " ").split()]
        except ValueError:
            raise ConfigError(
                f"[{self.name}] {key} = {raw!r} is not a list of numbers"
            ) from None

    def names(self, key: str) -> List[str]:
        raw = self.str(key)
        return [tok for tok in raw.replace(",", " ").split() if tok]


def _build_loss(name: str, cfg: configparser.ConfigParser, cache: Dict[str, LossSpec],
                building: set) -> LossSpec:
    if name in cache:
        return cache[name]
    section_name = LOSS_PREFIX + name
    if not cfg.has_section(section_name):
        raise ConfigError(f"unknown loss {name!r}; define a [{section_name}] section")
    if name in building:
        raise ConfigError(f"loss {name!r} references itself (directly or via a cycle)")
    building.add(name)
    view = SectionView(section_name, cfg[section_name])
    kind = view.kind(_LOSS_KEYS, "a loss")
    try:
        if kind == "power":
            loss: LossSpec = Power(p=view.float("p"), c=view.float("c", 1.0))
        elif kind == "scaled":
            inner = _build_loss(view.str("inner"), cfg, cache, building)
            loss = Scaled(factor=view.float("factor"), inner=inner)
        elif kind == "sum":
            terms = [_build_loss(t, cfg, cache, building) for t in view.names("terms")]
            loss = SumLoss(terms)
        else:
            loss = Huber(k=view.float("k"))
    except ValueError as exc:
        raise ConfigError(f"[{section_name}]: {exc}") from exc
    building.discard(name)
    cache[name] = loss
    return loss


def _build_estimator(name: str, cfg: configparser.ConfigParser,
                     cache: Dict[str, EstimatorSpec], building: set) -> EstimatorSpec:
    if name in cache:
        return cache[name]
    section_name = ESTIMATOR_PREFIX + name
    if not cfg.has_section(section_name):
        raise ConfigError(f"unknown estimator {name!r}; define a [{section_name}] section")
    if name in building:
        raise ConfigError(f"estimator {name!r} references itself")
    building.add(name)
    view = SectionView(section_name, cfg[section_name])
    kind = view.kind(_ESTIMATOR_KEYS, "an estimator")
    try:
        if kind == "affine_mean":
            est: EstimatorSpec = AffineMean(gamma=view.float("gamma"), beta=view.float("beta", 0.0))
        elif kind == "sample_median":
            est = SampleMedian(beta=view.float("beta", 0.0))
        else:
            base = _build_estimator(view.str("base"), cfg, cache, building)
            est = SignPerturbed(
                base=base,
                epsilon=view.float("epsilon"),
                theta_star=view.float("theta_star"),
            )
    except ValueError as exc:
        raise ConfigError(f"[{section_name}]: {exc}") from exc
    building.discard(name)
    cache[name] = est
    return est


def _build_family(cfg: configparser.ConfigParser) -> Optional[FamilySpec]:
    if not cfg.has_section("family"):
        return None
    view = SectionView("family", cfg["family"])
    kind = view.kind(_FAMILY_KEYS, "a family")
    try:
        if kind == "affine_mean":
            return AffineMeanFamily(
                gamma_range=Interval(view.float("gamma_lo"), view.float("gamma_hi")),
                beta_range=Interval(view.float("beta_lo"), view.float("beta_hi")),
            )
        return MedianShiftFamily(
            beta_range=Interval(view.float("beta_lo"), view.float("beta_hi"))
        )
    except ValueError as exc:
        raise ConfigError(f"[family]: {exc}") from exc


def load_config(path) -> RunConfig:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    sha256 = hashlib.sha256(text.encode()).hexdigest()

    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error in {path}: {exc}") from exc

    if not parser.has_section("model"):
        raise ConfigError("missing [model] section")
    model_view = SectionView("model", parser["model"])
    model_view.reject_unknown(("n", "sigma"))
    try:
        model = GaussianLocationModel(
            n=model_view.int("n"), sigma=model_view.float("sigma", 1.0)
        )
    except ValueError as exc:
        raise ConfigError(f"[model]: {exc}") from exc

    if not parser.has_section("theta"):
        raise ConfigError("missing [theta] section")
    theta_view = SectionView("theta", parser["theta"])
    theta_view.reject_unknown(("lo", "hi"))
    try:
        theta_interval = Interval(theta_view.float("lo"), theta_view.float("hi"))
    except ValueError as exc:
        raise ConfigError(f"[theta]: {exc}") from exc

    losses: Dict[str, LossSpec] = {}
    estimators: Dict[str, EstimatorSpec] = {}
    for section in parser.sections():
        if section.startswith(LOSS_PREFIX):
            _build_loss(section[len(LOSS_PREFIX):], parser, losses, set())
        elif section.startswith(ESTIMATOR_PREFIX):
            _build_estimator(section[len(ESTIMATOR_PREFIX):], parser, estimators, set())

    seed: Optional[int] = None
    if parser.has_section("run"):
        run_view = SectionView("run", parser["run"])
        run_view.reject_unknown(("seed",))
        if run_view.has("seed"):
            seed = run_view.int("seed")

    return RunConfig(
        model=model,
        theta_interval=theta_interval,
        losses=losses,
        estimators=estimators,
        family=_build_family(parser),
        seed=seed,
        sha256=sha256,
        _parser=parser,
    )
