"""Workload abstractions shared by the TPC-W and RUBiS models.

A :class:`Workload` bundles, for one application:

* a synthetic schema (tables and indexes with realistic page footprints),
* a set of :class:`~repro.engine.query.QueryClass` objects whose access
  patterns reproduce the locality structure of the real benchmark's
  interactions, and
* a *mix*: the relative frequency of each class (e.g. TPC-W's shopping mix
  with 20 % writes).

The schema and index catalog are shared by every replica of the application
— data is fully replicated, so page ids coincide across replicas and an
index drop (a database-configuration change) affects all of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..engine.indexes import IndexCatalog
from ..engine.query import QueryClass, QueryClassRegistry
from ..engine.tables import Schema
from ..sim.rng import CumulativeSampler, RandomStream, SeedSequenceFactory

__all__ = ["MixEntry", "Workload"]


@dataclass(frozen=True)
class MixEntry:
    """One query class and its relative frequency in the workload mix."""

    query_class: QueryClass
    weight: float

    def __post_init__(self) -> None:
        if self.weight < 0:
            raise ValueError(
                f"mix weight of {self.query_class.name!r} must be "
                f"non-negative: {self.weight}"
            )


@dataclass
class Workload:
    """One application's schema, query classes and mix."""

    app: str
    schema: Schema
    catalog: IndexCatalog
    mix: list[MixEntry] = field(default_factory=list)
    seeds: SeedSequenceFactory = field(default_factory=SeedSequenceFactory)

    def __post_init__(self) -> None:
        self._registry = QueryClassRegistry(self.app)
        for entry in self.mix:
            self._registry.register(entry.query_class)
        # sample_class's cache: a sampler and the mix it was built from.
        # ``mix`` is a public list that callers rebind and mutate in place,
        # so the cache is validated by content on every draw, not by hooks.
        self._sampled_mix: tuple[MixEntry, ...] | None = None
        self._sampler: CumulativeSampler | None = None

    @property
    def registry(self) -> QueryClassRegistry:
        return self._registry

    def classes(self) -> list[QueryClass]:
        return [entry.query_class for entry in self.mix]

    def class_named(self, name: str) -> QueryClass:
        return self._registry.by_name(name)

    def weights(self) -> list[float]:
        return [entry.weight for entry in self.mix]

    @property
    def write_fraction(self) -> float:
        """Fraction of the mix that is writes (sanity check vs the paper)."""
        total = sum(entry.weight for entry in self.mix)
        if total <= 0:
            return 0.0
        writes = sum(
            entry.weight for entry in self.mix if entry.query_class.is_write
        )
        return writes / total

    def sample_class(self, stream: RandomStream) -> QueryClass:
        """Draw one query class according to the mix weights."""
        mix = tuple(self.mix)
        if mix != self._sampled_mix:
            if not mix:
                raise ValueError(f"workload {self.app!r} has an empty mix")
            self._sampler = CumulativeSampler.from_weights(
                [entry.weight for entry in mix]
            )
            self._sampled_mix = mix
        return mix[self._sampler.draw(stream)].query_class

    def normalized_weights(self) -> dict[str, float]:
        """Per-class mix frequencies normalised to sum to 1.0."""
        total = sum(entry.weight for entry in self.mix)
        if total <= 0:
            raise ValueError(f"workload {self.app!r} has no positive mix weight")
        return {
            entry.query_class.name: entry.weight / total for entry in self.mix
        }

    def add_class(self, query_class: QueryClass, weight: float) -> None:
        """Register a new class into the live mix.

        The zoo's OLAP scan storm uses this to co-locate a reporting class
        with an OLTP mix mid-run; the registry gains the class so metric
        windows and diagnosis see it as *new*.
        """
        if weight < 0:
            raise ValueError(
                f"mix weight of {query_class.name!r} must be non-negative: "
                f"{weight}"
            )
        self._registry.register(query_class)
        self.mix.append(MixEntry(query_class=query_class, weight=weight))

    def scale_weights(self, multipliers: dict[str, float]) -> None:
        """Scale selected classes' mix weights in place (zoo bursts).

        Classes absent from ``multipliers`` keep their weight.  Raises on
        unknown names so a typo cannot silently leave the mix untouched.
        """
        known = {entry.query_class.name for entry in self.mix}
        missing = set(multipliers) - known
        if missing:
            raise KeyError(
                f"workload {self.app!r} has no classes {sorted(missing)}"
            )
        self.mix = [
            MixEntry(
                query_class=entry.query_class,
                weight=entry.weight
                * multipliers.get(entry.query_class.name, 1.0),
            )
            for entry in self.mix
        ]

    def without_class(self, name: str) -> "Workload":
        """A copy of this workload with one class removed from the mix.

        Used by the Table 3 experiment, where the heaviest-I/O class is
        removed from one RUBiS instance.  Registry state is rebuilt so the
        copy is independent.
        """
        remaining = [entry for entry in self.mix if entry.query_class.name != name]
        if len(remaining) == len(self.mix):
            raise KeyError(f"workload {self.app!r} has no class {name!r}")
        return Workload(
            app=self.app,
            schema=self.schema,
            catalog=self.catalog,
            mix=remaining,
            seeds=self.seeds,
        )
