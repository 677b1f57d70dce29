"""Colored point configurations: data model, file formats, generation.

A configuration is d+1 pairwise-disjoint color classes of n points each in
dimension d, with the whole union in general position.  Coordinates are
exact rationals; the JSON format stores them as strings ("7", "1/3",
"0.25") so that load(save(cfg)) round-trips bit for bit.

Construction scales the union to integers once, then validates: a
`ColoredConfiguration` that exists is valid, so no consumer checks it
again.  Its integer frame (see `ColoredConfiguration`) is the one frame
that planar validation, depth search and verification run in.

Formats
-------
JSON:   {"dimension": d, "colors": [[["x", "y"], ...], ...]}
plain:  one point per line: "color_index x1 x2 ... xd"
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (
    BudgetExceededError,
    GenerationError,
    InputError,
    ParseError,
    ValidationError,
)
from .geometry import (
    MAX_COORDINATE_BITS,
    Point,
    first_collinear_triple,
    format_rational,
    general_position_check,
    integer_scaled,
    point,
    rational,
)

DISTRIBUTIONS = ("uniform-box", "gaussian", "moment-curve-perturbed")
JITTER = 997  # denominator bound of the generator's rational jitter


# A point num/den of a configuration's integer frame, den > 0: the point
# num/(den*scale) of the original coordinates.
Framed = tuple[int, tuple[int, ...]]


@dataclass(frozen=True)
class ColoredConfiguration:
    """A valid colored configuration; the constructor raises
    ValidationError otherwise.

    The integer frame is derived data, built once at construction and
    excluded from comparison: the union in class order scaled by `scale`
    (the lcm of all coordinate denominators) to `int_points`, with the
    class of each point in `point_colors`.  Class i occupies indices
    i*n .. i*n + n - 1.  `frame` and `unframe` convert other points to
    and from it.
    """

    dimension: int
    colors: tuple[tuple[Point, ...], ...]
    int_points: tuple[tuple[int, ...], ...] = field(
        init=False, repr=False, compare=False
    )
    scale: int = field(init=False, repr=False, compare=False)
    point_colors: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        int_points, scale = integer_scaled(self.all_points())
        object.__setattr__(self, "int_points", tuple(int_points))
        object.__setattr__(self, "scale", scale)
        object.__setattr__(
            self,
            "point_colors",
            tuple(ci for ci, cls in enumerate(self.colors) for _ in cls),
        )
        self.validate()

    def frame(self, p: Point) -> Framed:
        """p in the integer frame: p*scale = num/den, den > 0."""
        scaled = [c * self.scale for c in p]
        den = math.lcm(*(c.denominator for c in scaled))
        return den, tuple(c.numerator * (den // c.denominator) for c in scaled)

    def unframe(self, den: int, num) -> Point:
        """The point num/(den*scale) of the original coordinates; the
        inverse of `frame`."""
        return tuple(Fraction(c, den * self.scale) for c in num)

    @property
    def n(self) -> int:
        return len(self.colors[0])

    @property
    def num_colors(self) -> int:
        return len(self.colors)

    def all_points(self) -> list[Point]:
        return [p for cls in self.colors for p in cls]

    def validate(self) -> "ColoredConfiguration":
        """Raise ValidationError unless the classes are d+1 nonempty
        classes of one size, of points of dimension d, pairwise distinct
        and in general position; return self.

        Duplicates are found on the integer frame: scaling by `scale` is
        injective, so two points are equal exactly when their
        `int_points` are, and the first repeat in class order is the same
        one.  In the plane general position is `first_collinear_triple`
        on the frame too; else `general_position_check`.
        """
        d = self.dimension
        if d < 1:
            raise ValidationError("dimension must be >= 1")
        if len(self.colors) != d + 1:
            raise ValidationError(
                f"expected {d + 1} color classes, got {len(self.colors)}",
                witness={"count": len(self.colors)},
            )
        sizes = [len(cls) for cls in self.colors]
        if min(sizes) == 0:
            raise ValidationError(
                "empty color class", witness={"sizes": sizes}
            )
        if len(set(sizes)) != 1:
            raise ValidationError(
                f"size mismatch: classes have sizes {sizes}",
                witness={"sizes": sizes},
            )
        frame = iter(self.int_points)  # in the order of the loop below
        seen: dict[tuple[int, ...], tuple[int, int]] = {}
        for ci, cls in enumerate(self.colors):
            for pi, p in enumerate(cls):
                if len(p) != d:
                    raise ValidationError(
                        f"point of dimension {len(p)} in dimension-{d} "
                        "configuration",
                        witness={"color": ci, "index": pi},
                    )
                key = next(frame)
                if key in seen:
                    raise ValidationError(
                        "duplicate point across the union",
                        witness={
                            "first": seen[key],
                            "second": (ci, pi),
                            "point": [format_rational(c) for c in p],
                        },
                    )
                seen[key] = (ci, pi)
        if d == 2:
            violation = first_collinear_triple(self.int_points)
        else:
            violation = general_position_check(self.all_points(), d)
        if violation is not None:
            raise ValidationError(
                f"general position violated at indices {violation}",
                witness={"indices": list(violation)},
            )
        return self


def configuration(dimension: int, colors) -> ColoredConfiguration:
    return ColoredConfiguration(
        dimension=dimension,
        colors=tuple(tuple(point(p) for p in cls) for cls in colors),
    )


@dataclass(frozen=True)
class GeneratorSpec:
    seed: int
    n: int
    d: int
    distribution: str = "uniform-box"

    def __post_init__(self):
        if self.n < 1 or self.d < 1:
            raise InputError("need n >= 1 and d >= 1")
        if self.distribution not in DISTRIBUTIONS:
            raise InputError(
                f"unknown distribution {self.distribution!r}; "
                f"choose one of {DISTRIBUTIONS}"
            )
        if not 0 <= self.seed < 2**64:
            raise InputError("seed must fit in 64 unsigned bits")


def _sample_point(rng: random.Random, spec: GeneratorSpec, index: int) -> Point:
    d, den = spec.d, JITTER
    if spec.distribution == "uniform-box":
        # Integer lattice in [0, 1024) plus jitter with denominator `den`.
        return tuple(
            Fraction(rng.randrange(1024) * den + rng.randrange(den), den)
            for _ in range(d)
        )
    if spec.distribution == "gaussian":
        return tuple(
            Fraction(round(rng.gauss(0.0, 256.0) * den), den) for _ in range(d)
        )
    # moment-curve-perturbed: points near (t, t^2, ..., t^d) with the
    # parameter spread over the union; produces skewed order types.
    t = Fraction(index) + Fraction(rng.randrange(den), 2 * den)
    return tuple(
        t ** (k + 1) + Fraction(rng.randrange(den), 16 * den) for k in range(d)
    )


def generate(spec: GeneratorSpec, max_attempts: int = 64) -> ColoredConfiguration:
    """Deterministic for a fixed spec; resamples on degeneracy."""
    for attempt in range(max_attempts):
        rng = random.Random(f"{spec.seed}:{attempt}:{spec.distribution}")
        colors = []
        counter = 0
        for _ in range(spec.d + 1):
            cls = []
            for _ in range(spec.n):
                cls.append(_sample_point(rng, spec, counter))
                counter += 1
            colors.append(tuple(cls))
        try:
            return ColoredConfiguration(dimension=spec.d, colors=tuple(colors))
        except ValidationError:
            continue
    raise GenerationError(
        f"no valid configuration after {max_attempts} attempts for {spec}"
    )


def _to_json_dict(cfg: ColoredConfiguration) -> dict:
    return {
        "dimension": cfg.dimension,
        "colors": [
            [[format_rational(c) for c in p] for p in cls]
            for cls in cfg.colors
        ],
    }


def save_configuration(cfg: ColoredConfiguration, fmt: str = "json") -> bytes:
    if fmt == "json":
        text = json.dumps(_to_json_dict(cfg), sort_keys=True, separators=(",", ":"))
        return (text + "\n").encode()
    if fmt == "plain":
        lines = []
        for ci, cls in enumerate(cfg.colors):
            for p in cls:
                lines.append(
                    " ".join([str(ci)] + [format_rational(c) for c in p])
                )
        return ("\n".join(lines) + "\n").encode()
    raise InputError(f"unknown format {fmt!r}")


def json_point(coords) -> Point:
    """A point read from JSON, the one coordinate reader for every JSON
    input.  The point is a JSON array; each coordinate is an exact
    string or a JSON integer, both bounded by MAX_COORDINATE_BITS
    (BudgetExceededError past it); anything else is a ParseError."""
    if not isinstance(coords, list):
        raise ParseError(f"a point must be a JSON array, got {type(coords).__name__}")
    values = []
    for value in coords:
        if isinstance(value, (bool, float)):
            raise ParseError(
                f"coordinate {value!r} rejected: use exact strings or integers"
            )
        if isinstance(value, int) and abs(value).bit_length() > MAX_COORDINATE_BITS:
            raise BudgetExceededError(
                f"integer coordinate of {abs(value).bit_length()} bits exceeds "
                f"{MAX_COORDINATE_BITS} bits"
            )
        values.append(rational(value))
    return tuple(values)


def _decode_text(source) -> str:
    """Text of a str, or of UTF-8 bytes; other bytes are a ParseError."""
    if not isinstance(source, bytes):
        return str(source)
    try:
        return source.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"input is not UTF-8: {exc}") from exc


def parse_json(source, what: str = "JSON"):
    """json.loads of `source` (str or UTF-8 bytes); every way the text
    can fail to be JSON, nesting too deep included, is a ParseError, and
    an integer literal over Python's digit limit a BudgetExceededError."""
    text = _decode_text(source)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed {what}: {exc}") from exc
    except RecursionError as exc:
        raise ParseError(f"malformed {what}: nested too deeply") from exc
    except ValueError as exc:  # an integer literal over Python's digit limit
        raise BudgetExceededError(f"{what}: {exc}") from exc


def load_configuration(source, fmt: str = "json") -> ColoredConfiguration:
    if fmt == "json":
        data = parse_json(source)
        try:
            dimension = data["dimension"]
            raw_colors = data["colors"]
            colors = tuple(
                tuple(json_point(p) for p in cls)
                for cls in raw_colors
            )
        except (KeyError, TypeError) as exc:
            raise ParseError(f"bad configuration structure: {exc}") from exc
        if isinstance(dimension, bool) or not isinstance(dimension, int):
            raise ParseError(f"dimension must be a JSON integer, got {dimension!r}")
    elif fmt == "plain":
        buckets: dict[int, list[Point]] = {}
        for lineno, line in enumerate(_decode_text(source).splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            try:
                ci = int(parts[0])
                coords = tuple(rational(tok) for tok in parts[1:])
            except (ValueError, InputError) as exc:
                raise ParseError(f"line {lineno}: {exc}") from exc
            if not coords:
                raise ParseError(f"line {lineno}: point has no coordinates")
            buckets.setdefault(ci, []).append(coords)
        if not buckets:
            raise ParseError("empty plain configuration")
        if sorted(buckets) != list(range(len(buckets))):
            raise ParseError(
                f"color indices must be 0..k, got {sorted(buckets)}"
            )
        dimension = len(next(iter(buckets.values()))[0])
        colors = tuple(tuple(buckets[i]) for i in sorted(buckets))
    else:
        raise InputError(f"unknown format {fmt!r}")
    return ColoredConfiguration(dimension=dimension, colors=colors)
