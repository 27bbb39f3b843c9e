"""Run configuration: a flat INI-style key-value format with named sections.

`SECTIONS` is the whole contract: every section a config may hold and the
keys each takes.

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
    [risk], [minimax], [exclusivity], [shift_risk], [classify]
                             one per command, read by the CLI

The syntax, as `read_ini` reads it:

* `[NAME]` opens a section; the name is kept as written (text after the
  last `]` is ignored), and a section may appear only once.  `[DEFAULT]`
  is an ordinary section name, so it is refused as unknown.
* `key = value` or `key: value`; the first `=` or `:` splits the line, and
  both sides are stripped.  Keys are lower-cased; a key may appear only
  once in a section.
* A line whose first non-blank character is `#` or `;` is a comment.  A `#`
  after whitespace starts a comment that runs to the end of the line; `;`
  never starts one after text.
* A line indented deeper than its key's line continues the value, joined
  with a newline.  A blank line inside a value is kept (trailing ones are
  dropped) unless it holds a comment.
* A line before the first header, a line with no `=` or `:` and a line
  with no key before it are errors, reported with their line number.
* Values are literal: `%` is not interpolated.

`load_config` checks every section name and key against the table before it
reads a value, so a misspelled section or key is a config error under every
command rather than a default.  Losses and estimators compose by reference
to other named sections.  A library ValueError about a section's values is
re-raised as a ConfigError that names the section (`SectionView.checked`).
The format is plain text: diffable and hashable, and the output headers
record the config's SHA-256.
"""

from __future__ import annotations

import hashlib
import math
import re
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional

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

# Keys of solver and certificate options that no longer exist; configs may
# still set them, and they are ignored.
RETIRED_KEYS = ("restarts", "grid", "refine_tol", "fatol", "agreement_tol", "halvings",
                "mc_samples")

# Every section and the keys it takes.  [loss NAME] and [estimator NAME]
# carry a name; they and [family] take `kind` and the keys of that kind.
NAMED = ("loss", "estimator")
SECTIONS: Dict[str, Any] = {
    "model": ("n", "sigma"),
    "theta": ("lo", "hi"),
    "loss": {"power": ("p", "c"), "scaled": ("factor", "inner"), "sum": ("terms",),
             "huber": ("k",)},
    "estimator": {"affine_mean": ("gamma", "beta"), "sample_median": ("beta",),
                  "sign_perturbed": ("base", "epsilon", "theta_star")},
    "family": {"affine_mean": ("gamma_lo", "gamma_hi", "beta_lo", "beta_hi"),
               "median_shift": ("beta_lo", "beta_hi")},
    "run": ("seed",),
    "risk": ("estimator", "loss", "thetas", "theta_lo", "theta_hi", "theta_count", "method",
             "samples"),
    "minimax": ("loss", "maxiter", *RETIRED_KEYS),
    "exclusivity": ("exponents", "maxiter", *RETIRED_KEYS),
    "shift_risk": ("q", "n", "alphas"),
    "classify": ("losses", "window_lo", "window_hi", "points"),
}


_DELIMITER = re.compile("[=:]")


def read_ini(text: str, source: str) -> Dict[str, Dict[str, str]]:
    """Each section of `text` as a dict of its values, by the syntax above;
    a syntax error is a ConfigError naming `source` and the line."""
    sections: Dict[str, Dict[str, List[str]]] = {}
    section: Optional[Dict[str, List[str]]] = None
    pieces: Optional[List[str]] = None  # the lines of the value being read
    indent = 0  # of the line of the last header or key

    def error(number: int, message: str) -> ConfigError:
        return ConfigError(f"config parse error in {source}: line {number}: {message}")

    # split on "\n" only: a form feed or other line break inside a value stays
    for number, line in enumerate(text.split("\n"), 1):
        comment = line.find("#")
        while comment > 0 and not line[comment - 1].isspace():
            comment = line.find("#", comment + 1)
        value = (line if comment < 0 else line[:comment]).strip()
        if not value or value[0] == ";":
            if not value and comment < 0 and pieces is not None:
                pieces.append("")
            continue
        here = len(line) - len(line.lstrip())
        if pieces is not None and here > indent:
            pieces.append(value)
            continue
        indent = here
        close = value.rfind("]")
        if value[0] == "[" and close > 1:
            name = value[1:close]
            if name in sections:
                raise error(number, f"section [{name}] appears twice")
            section = sections[name] = {}
            pieces = None
        elif section is None:
            raise error(number, f"{value!r} comes before any [section] header")
        else:
            delimiter = _DELIMITER.search(value)
            if delimiter is None:
                raise error(number, f"{value!r} has no '=' or ':'")
            key = value[:delimiter.start()].rstrip().lower()
            if not key:
                raise error(number, f"{value!r} has no key before {delimiter.group()!r}")
            if key in section:
                raise error(number, f"key {key!r} appears twice in [{name}]")
            pieces = section[key] = [value[delimiter.end():].strip()]
    return {name: {key: "\n".join(lines).rstrip() for key, lines in values.items()}
            for name, values in sections.items()}


def _article(word: str) -> str:
    return "an" if word[0] in "aeiou" else "a"


def _undefined(head: str, name: str) -> ConfigError:
    return ConfigError(f"unknown {head} {name!r}; define {_article(head)} [{head} {name}] section")


@dataclass
class RunConfig:
    model: GaussianLocationModel
    theta_interval: Interval
    losses: Dict[str, LossSpec]
    estimators: Dict[str, EstimatorSpec]
    family: Optional[FamilySpec]
    seed: Optional[int]
    sha256: str
    _sections: Dict[str, Dict[str, str]]

    def section(self, name: str, required: bool = True) -> "SectionView":
        return _section(self._sections, name, required)

    def loss(self, name: str) -> LossSpec:
        if name not in self.losses:
            raise _undefined("loss", name)
        return self.losses[name]

    def estimator(self, name: str) -> EstimatorSpec:
        if name not in self.estimators:
            raise _undefined("estimator", name)
        return self.estimators[name]


class SectionView:
    """Typed access to one section with errors that name section and key."""

    def __init__(self, name: str, values: Dict[str, str]):
        self.name = name
        self._values = values

    def has(self, key: str) -> bool:
        return key in self._values

    @contextmanager
    def checked(self) -> Iterator[None]:
        """Name this section in a ValueError the library raises on its values."""
        try:
            yield
        except ValueError as exc:
            raise ConfigError(f"[{self.name}]: {exc}") from exc

    def str(self, key: str, default: Optional[str] = None) -> str:
        if key not in self._values:
            if default is not None:
                return default
            raise ConfigError(f"[{self.name}] is missing key {key!r}")
        return self._values[key].strip()

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


def _section(sections: Dict[str, Dict[str, str]], name: str,
             required: bool = True) -> SectionView:
    """The section `name`; an absent optional one reads as empty."""
    if name in sections:
        return SectionView(name, sections[name])
    if required:
        raise ConfigError(f"missing [{name}] section")
    return SectionView(name, {})


def _check_sections(sections: Dict[str, Dict[str, str]]) -> None:
    """Raise on a section, a kind or a key that SECTIONS does not name."""
    for section, values in sections.items():
        head, _, name = section.partition(" ")
        if head not in SECTIONS or bool(name) != (head in NAMED):
            raise ConfigError(f"unknown section [{section}]")
        keys = SECTIONS[head]
        if isinstance(keys, dict):
            kind = SectionView(section, values).str("kind")
            if kind not in keys:
                raise ConfigError(
                    f"[{section}] kind = {kind!r} is not {_article(head)} {head} kind"
                )
            keys = ("kind", *keys[kind])
        for key in values:
            if key not in keys:
                raise ConfigError(f"[{section}] has unknown key {key!r}")


def _build_named(sections: Dict[str, Dict[str, str]], head: str,
                 build: Callable[[SectionView, Callable[[str], Any]], Any]) -> Dict[str, Any]:
    """Every [HEAD NAME] section, each built once by `build(view, resolve)`,
    where `resolve(name)` returns the section it refers to and refuses a
    cycle."""
    built: Dict[str, Any] = {}
    building = set()

    def resolve(name: str) -> Any:
        if name in built:
            return built[name]
        section = f"{head} {name}"
        if section not in sections:
            raise _undefined(head, name)
        if name in building:
            raise ConfigError(f"{head} {name!r} references itself (directly or via a cycle)")
        building.add(name)
        view = SectionView(section, sections[section])
        with view.checked():
            built[name] = build(view, resolve)
        building.discard(name)
        return built[name]

    for section in sections:
        first, _, name = section.partition(" ")
        if first == head:
            resolve(name)
    return built


def _loss(view: SectionView, resolve: Callable[[str], LossSpec]) -> LossSpec:
    kind = view.str("kind")
    if kind == "power":
        return Power(p=view.float("p"), c=view.float("c", 1.0))
    if kind == "scaled":
        return Scaled(inner=resolve(view.str("inner")), factor=view.float("factor"))
    if kind == "sum":
        return SumLoss([resolve(t) for t in view.names("terms")])
    return Huber(k=view.float("k"))


def _estimator(view: SectionView, resolve: Callable[[str], EstimatorSpec]) -> EstimatorSpec:
    kind = view.str("kind")
    if kind == "affine_mean":
        return AffineMean(gamma=view.float("gamma"), beta=view.float("beta", 0.0))
    if kind == "sample_median":
        return SampleMedian(beta=view.float("beta", 0.0))
    return SignPerturbed(
        base=resolve(view.str("base")),
        epsilon=view.float("epsilon"),
        theta_star=view.float("theta_star"),
    )


def _family(sections: Dict[str, Dict[str, str]]) -> Optional[FamilySpec]:
    if "family" not in sections:
        return None
    view = _section(sections, "family")

    def box(name: str) -> Interval:
        # the scalar search steps through a range by fractions of its width
        lo, hi = view.float(f"{name}_lo"), view.float(f"{name}_hi")
        interval = Interval(lo, hi)
        if math.isinf(hi - lo):
            raise ValueError(f"{name} range [{lo}, {hi}] is too wide: hi - lo overflows")
        return interval

    with view.checked():
        beta_range = box("beta")
        if view.str("kind") == "median_shift":
            return MedianShiftFamily(beta_range=beta_range)
        return AffineMeanFamily(gamma_range=box("gamma"), beta_range=beta_range)


def load_config(path) -> RunConfig:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    sha256 = hashlib.sha256(text.encode()).hexdigest()
    sections = read_ini(text, str(path))
    _check_sections(sections)

    view = _section(sections, "model")
    with view.checked():
        model = GaussianLocationModel(n=view.int("n"), sigma=view.float("sigma", 1.0))
    view = _section(sections, "theta")
    with view.checked():
        theta_interval = Interval(view.float("lo"), view.float("hi"))
    run = _section(sections, "run", required=False)
    seed = run.int("seed") if run.has("seed") else None
    if seed is not None and seed < 0:
        raise ConfigError(f"[run] seed must be >= 0, got {seed}")

    return RunConfig(
        model=model,
        theta_interval=theta_interval,
        losses=_build_named(sections, "loss", _loss),
        estimators=_build_named(sections, "estimator", _estimator),
        family=_family(sections),
        seed=seed,
        sha256=sha256,
        _sections=sections,
    )
