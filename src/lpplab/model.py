"""Random environments for last passage problems.

Two environment families are supported:

* ``PoissonCloud`` -- a homogeneous Poisson point set in a space-time
  rectangle.  Passage values between space-time points count cloud points
  on 1-Lipschitz paths.
* ``LatticeField`` -- a rows x cols matrix of nonnegative weights.
  Passage values between cells sum weights along monotone (down/right)
  cell paths.  Cells carry chart coordinates t = i + j, x = j - i
  (0-indexed), so a monotone path visits exactly one cell per chart time
  and plays the role of a discrete 1-Lipschitz path.

Both constructors are pure functions of (seed, parameters): rebuilding
with the same arguments yields bit-identical environments.
"""

from __future__ import annotations

import json
import math
from operator import attrgetter
from typing import List, Optional, Tuple, Union

import numpy as np

from . import rng
from .errors import DomainError, ParameterError


class Factory:
    """A record field's default, made fresh for each instance by ``make()``."""

    __slots__ = ("make",)

    def __init__(self, make):
        self.make = make


def record(cls=None, *, frozen: bool = False):
    """Class decorator adding what ``dataclasses.dataclass`` adds, built as
    closures over the field names instead of exec'd source, so defining a
    record compiles nothing.

    The fields are the class's annotations, in order; a class attribute
    is a field's default, and a ``Factory`` default is made fresh for
    each instance.  ``__init__`` takes the fields positionally or by
    keyword and then calls ``__post_init__`` when the class has one.
    ``__repr__`` is ``Name(field=value, ...)``; ``__eq__`` compares the
    field tuples of two instances of the same class.  A plain record is
    unhashable; a frozen one hashes its field tuple and refuses
    assignment and deletion with AttributeError.  A method the class
    defines itself is kept.
    """
    if cls is None:
        return lambda c: record(c, frozen=frozen)
    names = tuple(cls.__dict__.get("__annotations__", {}))
    defaults = {}
    for name in names:
        if name in cls.__dict__:
            defaults[name] = cls.__dict__[name]
            if isinstance(defaults[name], Factory):
                delattr(cls, name)
        elif defaults:
            raise TypeError(f"non-default argument {name!r} follows default argument")
    count = len(names)
    indexed = tuple(enumerate(names))
    post_init = hasattr(cls, "__post_init__")
    if count == 1:
        one = attrgetter(names[0])
        fields = lambda obj: (one(obj),)
    else:
        fields = attrgetter(*names) if names else lambda obj: ()

    def bind(args, kwargs):
        """The field values in order, bound from a call's arguments as a
        function with the fields as parameters would bind them."""
        if len(args) > count:
            raise TypeError(f"{cls.__qualname__}() takes {count} positional arguments "
                            f"but {len(args)} were given")
        values = list(args)
        missing = []
        for name in names[len(args):]:
            if name in kwargs:
                values.append(kwargs.pop(name))
            elif name in defaults:
                default = defaults[name]
                values.append(default.make() if isinstance(default, Factory) else default)
            else:
                missing.append(name)
        for name in kwargs:
            how = "multiple values for" if name in names else "an unexpected keyword"
            raise TypeError(f"{cls.__qualname__}() got {how} argument {name!r}")
        if missing:
            raise TypeError(f"{cls.__qualname__}() missing required arguments: "
                            + ", ".join(map(repr, missing)))
        return values

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != count:
            args = bind(args, kwargs)
        attrs = self.__dict__  # a frozen record's __setattr__ refuses
        for k, name in indexed:  # faster than attrs.update(zip(names, args))
            attrs[name] = args[k]
        if post_init:
            self.__post_init__()

    def __repr__(self):
        return (f"{self.__class__.__qualname__}("
                + ", ".join(f"{name}={value!r}" for name, value in zip(names, fields(self)))
                + ")")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return fields(self) == fields(other)
        return NotImplemented

    def __hash__(self):
        return hash(fields(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    methods = {"__init__": __init__, "__repr__": __repr__, "__eq__": __eq__,
               "__hash__": __hash__ if frozen else None}
    if frozen:
        methods.update(__setattr__=__setattr__, __delattr__=__delattr__)
    for name, method in methods.items():
        if name not in cls.__dict__:
            if method is not None:
                method.__qualname__ = f"{cls.__qualname__}.{name}"
            setattr(cls, name, method)
    return cls


@record(frozen=True)
class SpaceTimePoint:
    x: float
    t: float

    def __post_init__(self):
        if not (np.isfinite(self.x) and np.isfinite(self.t)):
            raise ParameterError(f"coordinates must be finite, got ({self.x}, {self.t})")


@record(frozen=True)
class OrderedQuad:
    """A start/end pair with start strictly earlier in time."""

    start: SpaceTimePoint
    end: SpaceTimePoint

    def __post_init__(self):
        if not self.start.t < self.end.t:
            raise ParameterError(
                f"quad must be time ordered: start.t={self.start.t} end.t={self.end.t}"
            )


@record(frozen=True)
class Region:
    """Axis-aligned space-time rectangle [x_lo, x_hi] x [t_lo, t_hi], bounds finite."""

    x_lo: float
    x_hi: float
    t_lo: float
    t_hi: float

    def __post_init__(self):
        for name, bound in vars(self).items():
            if not math.isfinite(bound):
                raise ParameterError(f"region bound {name} must be finite, got {bound}")
        if self.x_hi < self.x_lo or self.t_hi < self.t_lo:
            raise ParameterError(f"degenerate region bounds: {self}")

    @property
    def area(self) -> float:
        return (self.x_hi - self.x_lo) * (self.t_hi - self.t_lo)


@record(frozen=True)
class ScalingFrame:
    """KPZ 1:2:3 scaling frame with parameter n > 0.

    Values recenter by 2n per unit of scaled duration and contract by
    n^(1/3); spatial coordinates contract by n^(2/3).
    """

    n: float

    def __post_init__(self):
        if not self.n > 0:
            raise ParameterError(f"scaling parameter must be positive, got {self.n}")

    @property
    def space_unit(self) -> float:
        return self.n ** (2.0 / 3.0)

    @property
    def value_unit(self) -> float:
        return self.n ** (1.0 / 3.0)


def causal_leq(p, q) -> bool:
    """True iff q is reachable from p along a 1-Lipschitz path."""
    px, pt = _xy(p)
    qx, qt = _xy(q)
    return qt >= pt and abs(qx - px) <= qt - pt


def rotate45(p) -> tuple:
    """Map (x, t) to chain coordinates (u, v) = (t + x, t - x).

    The map is a bijection and order preserving: causal_leq(p, q) holds
    exactly when both coordinates are nondecreasing from p to q.
    """
    x, t = _xy(p)
    return (t + x, t - x)


def _xy(p) -> tuple:
    if isinstance(p, SpaceTimePoint):
        return (p.x, p.t)
    x, t = p
    return (float(x), float(t))


def check_side(side) -> None:
    """An extremal side is 'left' or 'right'; anything else raises."""
    if side not in ("left", "right"):
        raise DomainError(f"side must be 'left' or 'right', got {side!r}")


def _runs(mask) -> List[Tuple[int, int]]:
    """(first, last) indices of each maximal run of True in mask."""
    edges = np.flatnonzero(np.diff(np.concatenate(([False], mask, [False]))))
    return [(int(i), int(k) - 1) for i, k in zip(edges[0::2], edges[1::2])]


class PoissonCloud:
    """A realized Poisson point set, sorted by (t + x, t - x).

    Points are distinct, as a Poisson cloud's are almost surely, and are
    exposed as parallel arrays ``xs``/``ts``; equality of environments is
    array equality.  The descriptor (seed, rate, region) regenerates the
    cloud exactly, with ``"reflected": true`` when it is the image of a
    seeded cloud under ``reflect``; a cloud without a seed carries its
    points instead.

    The points are stored in the one order every chain kernel reads:
    by (t + x, t - x), ties by (t, x), so a causal chain runs forward
    through the arrays.  ``u_keys`` holds their t + x.  The sort is one
    argsort of t + x unless two of its values are equal, then one
    lexsort.  Each read-out takes the slab of the arrays near a source's
    cone (see ``cloud``), so no read-out sorts the whole cloud.
    """

    reflected = False  # set by reflect()

    def __init__(self, xs: np.ndarray, ts: np.ndarray, region: Region,
                 seed: Optional[int] = None, rate: Optional[float] = None):
        xs = np.asarray(xs, dtype=np.float64)
        ts = np.asarray(ts, dtype=np.float64)
        for name, a in (("xs", xs), ("ts", ts)):
            if a.ndim != 1:
                raise ParameterError(f"cloud {name} must be a 1-d array, got shape {a.shape}")
        if xs.shape != ts.shape:
            raise ParameterError("xs and ts must have equal length")
        u = ts + xs
        order = np.argsort(u)
        key = u[order]
        if bool(np.any(key[1:] == key[:-1])):  # argsort leaves equal keys unordered
            order = np.lexsort((xs, ts, ts - xs, u))
        self.xs = xs[order]
        self.ts = ts[order]
        self.u_keys = u[order]
        self.region = region
        self.seed = seed
        self.rate = rate
        inside = ((self.xs >= region.x_lo) & (self.xs <= region.x_hi)
                  & (self.ts >= region.t_lo) & (self.ts <= region.t_hi))
        if not bool(np.all(inside)):
            raise ParameterError("cloud points must lie inside the region")
        same = (self.xs[1:] == self.xs[:-1]) & (self.ts[1:] == self.ts[:-1])
        if bool(np.any(same)):  # sorted, so a repeat sits next to its copy
            k = int(np.argmax(same))
            raise ParameterError(f"repeated cloud point ({self.xs[k]}, {self.ts[k]})")

    def __len__(self) -> int:
        return int(self.xs.size)

    @property
    def points(self) -> list:
        return [SpaceTimePoint(float(x), float(t)) for x, t in zip(self.xs, self.ts)]

    def descriptor(self) -> dict:
        d = {
            "model": "poisson",
            "seed": self.seed,
            "rate": self.rate,
            "region": [self.region.x_lo, self.region.x_hi,
                       self.region.t_lo, self.region.t_hi],
        }
        if self.seed is None:
            d["points"] = np.column_stack([self.xs, self.ts]).tolist()
        elif self.reflected:
            d["reflected"] = True
        return d

    def to_json(self) -> str:
        return json.dumps(self.descriptor(), sort_keys=True)


def make_poisson_cloud(seed: int, rate: float, region: Region) -> PoissonCloud:
    """Sample a rate-``rate`` Poisson cloud on ``region``.

    The count is Poisson(rate * area) by inversion, followed by that many
    uniform points, sorted as every cloud is.  A zero-area region yields the
    empty cloud.
    """
    if not (rate > 0 and math.isfinite(rate)):
        raise ParameterError(f"rate must be finite and positive, got {rate}")
    n = rng.poisson_count(seed, rng.Stream.POISSON_COUNT, rate * region.area)
    u = rng.uniforms(seed, rng.Stream.POISSON_POINTS, 2 * n)
    xs = region.x_lo + (region.x_hi - region.x_lo) * u[:n]
    ts = region.t_lo + (region.t_hi - region.t_lo) * u[n:]
    return PoissonCloud(xs, ts, region, seed=seed, rate=rate)


def cloud_from_points(points, pad: float = 1.0) -> PoissonCloud:
    """Wrap an explicit point list as a cloud (for tests and replays)."""
    xs = np.array([_xy(p)[0] for p in points], dtype=np.float64)
    ts = np.array([_xy(p)[1] for p in points], dtype=np.float64)
    if xs.size == 0:
        region = Region(-pad, pad, -pad, pad)
    else:
        region = Region(float(xs.min()) - pad, float(xs.max()) + pad,
                        float(ts.min()) - pad, float(ts.max()) + pad)
    return PoissonCloud(xs, ts, region)


_LAWS = ("geometric", "exponential", "bernoulli", "explicit")


class LatticeField:
    """A rows x cols field of finite nonnegative weights.

    Chart coordinates: cell (i, j), 0-indexed, sits at chart time
    t = i + j and chart position x = j - i.  ``cell_at`` and ``chart_of``
    convert between the two pictures.  The descriptor regenerates a
    sampled field from its seed, with ``"reflected": true`` when it is
    the image of one under ``reflect``; an explicit field carries its
    weights.
    """

    reflected = False  # set by reflect()

    def __init__(self, weights: np.ndarray, law: str, seed: Optional[int] = None,
                 law_param: Optional[float] = None):
        w = np.asarray(weights, dtype=np.float64)
        if w.ndim != 2 or w.shape[0] < 1 or w.shape[1] < 1:
            raise ParameterError(f"weights must be a nonempty matrix, got shape {w.shape}")
        if not np.isfinite(w).all():
            raise ParameterError("weights must be finite")
        if np.any(w < 0):
            raise ParameterError("weights must be nonnegative")
        self.weights = w
        self.law = law
        self.seed = seed
        self.law_param = law_param
        if self.integer_valued:
            # a pair of paths sums at most 2 * (rows + cols - 1) weights, and
            # float64 holds every integer only below 2^53
            top = float(w.max())
            worst = 2.0 * (self.rows + self.cols - 1) * top
            if worst >= 2.0 ** 53:
                raise ParameterError(
                    f"integer weights up to {top:.17g} on a {self.rows}x{self.cols} "
                    f"grid: a doubled path sum 2 x (rows + cols - 1) x max weight = {worst:.17g} "
                    f"reaches 2^53, past which float64 integers are not exact")

    @property
    def rows(self) -> int:
        return self.weights.shape[0]

    @property
    def cols(self) -> int:
        return self.weights.shape[1]

    @property
    def integer_valued(self) -> bool:
        return self.law in ("geometric", "bernoulli") or (
            self.law == "explicit" and bool(np.all(self.weights == np.floor(self.weights)))
        )

    def in_grid(self, cell) -> bool:
        i, j = cell
        return 0 <= i < self.rows and 0 <= j < self.cols

    def chart_of(self, cell) -> tuple:
        i, j = cell
        return (j - i, i + j)

    def cell_at(self, x: int, t: int) -> tuple:
        """Cell at chart position x, chart time t, as Python ints.  Requires
        integral x and t (an int or an integral float) with x = t mod 2."""
        if not (float(x).is_integer() and float(t).is_integer()):
            raise DomainError(f"chart point (x={x}, t={t}) is not integral")
        x, t = int(x), int(t)
        if (t + x) % 2 != 0:
            raise DomainError(f"chart point (x={x}, t={t}) has mismatched parity")
        i = (t - x) // 2
        j = (t + x) // 2
        if not self.in_grid((i, j)):
            raise DomainError(f"chart point (x={x}, t={t}) maps outside the {self.rows}x{self.cols} grid")
        return (i, j)

    def descriptor(self) -> dict:
        d = {
            "model": "lattice",
            "law": self.law,
            "rows": self.rows,
            "cols": self.cols,
            "seed": self.seed,
            "law_param": self.law_param,
        }
        if self.law == "explicit":
            d["weights"] = self.weights.tolist()
        elif self.reflected:
            d["reflected"] = True
        return d

    def to_json(self) -> str:
        return json.dumps(self.descriptor(), sort_keys=True)


def make_lattice_field(seed: int, rows: int, cols: int, law: str,
                       law_param: Optional[float] = None,
                       weights=None) -> LatticeField:
    """Build a lattice weight field.

    ``law`` is one of geometric, exponential, bernoulli, explicit.  The
    geometric/bernoulli parameter defaults to 0.5.  Explicit fields echo
    the given matrix and ignore the seed.
    """
    if law not in _LAWS:
        raise ParameterError(f"unknown law {law!r}; expected one of {_LAWS}")
    if law == "explicit":
        if weights is None:
            raise ParameterError("explicit law requires a weight matrix")
        return LatticeField(np.asarray(weights), law, seed=seed)
    if rows < 1 or cols < 1:
        raise ParameterError(f"grid must be at least 1x1, got {rows}x{cols}")
    n = rows * cols
    if law == "geometric":
        p = 0.5 if law_param is None else law_param
        w = rng.geometric_weights(seed, rng.Stream.LATTICE_WEIGHTS, n, p)
    elif law == "bernoulli":
        p = 0.5 if law_param is None else law_param
        w = rng.bernoulli_weights(seed, rng.Stream.LATTICE_WEIGHTS, n, p)
    else:
        p = None
        w = rng.exponential_weights(seed, rng.Stream.LATTICE_WEIGHTS, n)
    return LatticeField(np.asarray(w, dtype=np.float64).reshape(rows, cols),
                        law, seed=seed, law_param=p)


def environment_for(seed: int, law: str, t0: int, horizon: int,
                    x_lo: int, x_hi: int, law_param: Optional[float] = None) -> LatticeField:
    """A lattice field large enough for all anchors in [x_lo, x_hi] at
    chart times up to t0 + horizon, including every path between them."""
    t_max = t0 + horizon
    span = t_max  # paths can swing half the time span beyond their anchors
    lo = x_lo - span // 2 - 2
    hi = x_hi + span // 2 + 2
    rows = (t_max - lo) // 2 + 2
    cols = (t_max + hi) // 2 + 2
    return make_lattice_field(seed, rows, cols, law, law_param)


def anchor_layout(n: int, halfwidth: float) -> tuple:
    """Anchor half-span a = floor(halfwidth * n^(2/3)) + 2 and start time
    t0, which is a rounded up to even."""
    a = int(halfwidth * n ** (2.0 / 3.0)) + 2
    return a, a + a % 2


def model_from_descriptor(d: dict):
    """Rebuild an environment from its JSON descriptor."""
    if d["model"] == "poisson":
        region = Region(*d["region"])
        if "points" in d:
            xs, ts = np.reshape(np.asarray(d["points"], dtype=np.float64), (-1, 2)).T
            return PoissonCloud(xs, ts, region)
        if d.get("reflected"):
            return reflect(make_poisson_cloud(d["seed"], d["rate"], _reflect_region(region)))
        return make_poisson_cloud(d["seed"], d["rate"], region)
    if d["model"] == "lattice":
        field = make_lattice_field(d.get("seed", 0), d["rows"], d["cols"], d["law"],
                                   law_param=d.get("law_param"),
                                   weights=d.get("weights"))
        return reflect(field) if d.get("reflected") else field
    raise ParameterError(f"unknown model kind {d.get('model')!r}")


Model = Union[PoissonCloud, LatticeField]


def rescale(raw, frame: ScalingFrame, centering: Optional[OrderedQuad] = None):
    """Apply the 1:2:3 frame.

    A scalar with a centering quad is treated as a passage value and maps
    to (v - 2 * duration) / n^(1/3), where duration is the quad's
    unscaled time span (so one unit of scaled time is n time units).  A
    scalar without a centering quad is treated as a spatial coordinate
    and contracts by n^(2/3).  A point rescales coordinatewise.
    """
    if isinstance(raw, SpaceTimePoint):
        return SpaceTimePoint(raw.x / frame.space_unit, raw.t / frame.n)
    if centering is not None:
        duration = centering.end.t - centering.start.t
        return (raw - 2.0 * duration) / frame.value_unit
    return raw / frame.space_unit


def reflect(model: Model) -> Model:
    """Apply (x, t) -> (-x, -t) to the realized noise.

    An involution.  Passage values transform exactly: the value between
    p and q in the original equals the value between -q and -p in the
    reflection.  The image keeps the seed and law, and records that it
    is reflected, so its descriptor rebuilds the image.
    """
    if isinstance(model, PoissonCloud):
        out = PoissonCloud(-model.xs, -model.ts, _reflect_region(model.region),
                           seed=model.seed, rate=model.rate)
    elif isinstance(model, LatticeField):
        out = LatticeField(model.weights[::-1, ::-1].copy(), model.law,
                           seed=model.seed, law_param=model.law_param)
    else:
        raise ParameterError(f"cannot reflect {type(model).__name__}")
    out.reflected = not model.reflected
    return out


def _reflect_region(region: Region) -> Region:
    return Region(-region.x_hi, -region.x_lo, -region.t_hi, -region.t_lo)


def reflect_cell(model: LatticeField, cell) -> tuple:
    """Image of a lattice cell under reflect()."""
    i, j = cell
    return (model.rows - 1 - i, model.cols - 1 - j)
