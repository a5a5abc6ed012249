"""Constraint builders and the built-in label tables.

Three constraint shapes are supported:

  - class similarity: whenever class l1 looks plausible (probability at
    least 1/n_classes), the related class l2 must not lag behind the
    unrelated class l3; one conjunct per triple,
  - group exclusivity: the total mass of each class group must sit near 0
    or near 1, never in between,
  - Lipschitz bound on paired samples: the output distance of two inputs
    is at most L times their input distance.

All builders return plain formula ASTs, so the same constraint feeds the
crisp evaluator, every loss backend, and the DSL printer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .formula import (
    Cmp,
    Const,
    Implies,
    Mul,
    Norm2Diff,
    Or,
    Output,
    ParseContext,
    Sub,
    Sum,
    conjoin,
)


@dataclass(frozen=True, slots=True)
class LabelTriple:
    l1: int
    l2: int
    l3: int

    def __post_init__(self):
        if len({self.l1, self.l2, self.l3}) != 3:
            raise ValueError(f"triple members must be distinct: {self}")
        if min(self.l1, self.l2, self.l3) < 0:
            raise ValueError(f"negative class index in {self}")


@dataclass(frozen=True, slots=True)
class ClassGroup:
    name: str
    members: tuple

    def __post_init__(self):
        if not self.name:
            raise ValueError("group needs a name")
        if not self.members:
            raise ValueError(f"group {self.name!r} is empty")
        if len(set(self.members)) != len(self.members):
            raise ValueError(f"group {self.name!r} repeats a member")
        if min(self.members) < 0:
            raise ValueError(f"negative class index in group {self.name!r}")


def _check_disjoint(groups) -> None:
    seen: dict[int, str] = {}
    for g in groups:
        for m in g.members:
            if m in seen:
                raise ValueError(
                    f"class {m} appears in both {seen[m]!r} and {g.name!r}"
                )
            seen[m] = g.name


# ---------------------------------------------------------------------------
# Builders


def csim_formula(triples, n_classes: int):
    """Conjunction over triples of: plausible l1 implies out[l2] >= out[l3]."""
    if not triples:
        raise ValueError("no label triples given")
    if n_classes < 2:
        raise ValueError("need at least two classes")
    threshold = Const(1.0 / n_classes)
    conjuncts = []
    for t in triples:
        if max(t.l1, t.l2, t.l3) >= n_classes:
            raise ValueError(f"triple {t} out of range for {n_classes} classes")
        conjuncts.append(
            Implies(
                Cmp(">=", Output(t.l1), threshold),
                Cmp(">=", Output(t.l2), Output(t.l3)),
            )
        )
    return conjoin(conjuncts)


# the group constraint's default slack, also `ExperimentConfig.eps_group`'s
GROUP_EPS = 0.05


def check_group_eps(eps):
    if not 0.0 < eps < 0.5:
        raise ValueError(f"eps must lie in (0, 0.5), got {eps!r}")


def group_formula(groups, eps: float = GROUP_EPS):
    """Each group's probability mass must be <= eps or >= 1 - eps."""
    if not groups:
        raise ValueError("no class groups given")
    check_group_eps(eps)
    _check_disjoint(groups)
    parts = []
    for g in groups:
        mass = Sum(tuple(Output(i) for i in g.members))
        parts.append(
            Or(
                Cmp("<=", mass, Const(eps)),
                Cmp(">=", mass, Sub(Const(1.0), Const(eps))),
            )
        )
    return conjoin(parts)


def lipschitz_formula(l: float):
    """Output distance of a sample pair bounded by l times the input distance."""
    if not 0.0 < l < math.inf:
        raise ValueError("the Lipschitz bound must be positive and finite")
    return Cmp(
        "<=",
        Norm2Diff("out", "out'"),
        Mul(Const(float(l)), Norm2Diff("in", "in'")),
    )


# ---------------------------------------------------------------------------
# Built-in tables

FMNIST_CLASSES = (
    "T-shirt/top",
    "Trouser",
    "Pullover",
    "Dress",
    "Coat",
    "Sandal",
    "Shirt",
    "Sneaker",
    "Bag",
    "Ankle boot",
)

CIFAR10_CLASSES = (
    "airplane",
    "automobile",
    "bird",
    "cat",
    "deer",
    "dog",
    "frog",
    "horse",
    "ship",
    "truck",
)

GTSRB_CLASSES = (
    "Speed limit (20km/h)",
    "Speed limit (30km/h)",
    "Speed limit (50km/h)",
    "Speed limit (60km/h)",
    "Speed limit (70km/h)",
    "Speed limit (80km/h)",
    "End of speed limit (80km/h)",
    "Speed limit (100km/h)",
    "Speed limit (120km/h)",
    "No passing",
    "No passing for vehicles over 3.5 tons",
    "Right-of-way at the next intersection",
    "Priority road",
    "Yield",
    "Stop",
    "No vehicles",
    "Vehicles over 3.5 tons prohibited",
    "No entry",
    "General caution",
    "Dangerous curve to the left",
    "Dangerous curve to the right",
    "Double curve",
    "Bumpy road",
    "Slippery road",
    "Road narrows on the right",
    "Road work",
    "Traffic signals",
    "Pedestrians",
    "Children crossing",
    "Bicycles crossing",
    "Beware of ice/snow",
    "Wild animals crossing",
    "End of all speed and passing limits",
    "Turn right ahead",
    "Turn left ahead",
    "Ahead only",
    "Go straight or right",
    "Go straight or left",
    "Keep right",
    "Keep left",
    "Roundabout mandatory",
    "End of no passing",
    "End of no passing by vehicles over 3.5 tons",
)

# (l1, l2, l3): when l1 is plausible, l2 must score at least l3
_FMNIST_TRIPLES = (
    (0, 6, 9),
    (1, 3, 8),
    (2, 6, 5),
    (3, 4, 8),
    (4, 2, 6),
    (5, 7, 3),
    (6, 2, 7),
    (7, 5, 1),
    (8, 5, 3),
    (9, 7, 0),
)

_CIFAR10_TRIPLES = (
    (0, 8, 5),
    (1, 9, 3),
    (2, 0, 5),
    (3, 5, 6),
    (4, 7, 9),
    (5, 3, 2),
    (6, 8, 9),
    (7, 4, 0),
    (8, 0, 4),
    (9, 1, 0),
)

_GTSRB_GROUPS = (
    ("speed_limits", tuple(range(0, 9))),
    ("prohibitions", (9, 10, 15, 17, 41, 42)),
    ("mandatory_actions", tuple(range(33, 41))),
    ("warnings", (18, 19, 20, 21, 22, 23, 24, 25, 27, 28, 31)),
)


@dataclass(frozen=True)
class ConstraintTables:
    dataset: str
    n_classes: int
    triples: tuple = ()
    groups: tuple = ()
    class_names: tuple = ()

    def class_name(self, i: int) -> str:
        if self.class_names:
            return self.class_names[i]
        return f"class {i}"


def synthetic_tables(n_classes: int = 10) -> ConstraintTables:
    """Triples and groups for the generated dataset.

    The generator pairs classes 2s and 2s+1 on site s of a circle, and
    only a site's own samples carry the pair-splitting feature.  The
    triple for class c therefore points at the *next* site and prefers
    its first variant: (c, 2s', 2s'+1) with s' the site after c's.  That
    ordering is not encoded in the features, so it is exactly the kind of
    side condition a logic term can add.  Groups chop the class range
    into consecutive blocks of sizes 3,3,2,2 repeating.
    """
    if n_classes < 3:
        raise ValueError("synthetic tables need at least 3 classes")
    n_sites = (n_classes + 1) // 2
    if n_classes == 3:
        # pair rule degenerates (the lone odd class wraps onto class 0)
        triples = tuple(
            LabelTriple(c, (c + 1) % 3, (c + 2) % 3) for c in range(3)
        )
    else:
        triples = tuple(
            LabelTriple(
                c,
                (2 * ((c // 2 + 1) % n_sites)) % n_classes,
                (2 * ((c // 2 + 1) % n_sites) + 1) % n_classes,
            )
            for c in range(n_classes)
        )
    groups = []
    sizes = (3, 3, 2, 2)
    start = 0
    while start < n_classes:
        size = min(sizes[len(groups) % len(sizes)], n_classes - start)
        groups.append(ClassGroup(f"block{len(groups)}", tuple(range(start, start + size))))
        start += size
    return ConstraintTables(
        dataset="synthetic",
        n_classes=n_classes,
        triples=triples,
        groups=tuple(groups),
    )


def builtin_tables(dataset: str) -> ConstraintTables:
    if dataset == "fmnist":
        return ConstraintTables(
            dataset="fmnist",
            n_classes=10,
            triples=tuple(LabelTriple(*t) for t in _FMNIST_TRIPLES),
            class_names=FMNIST_CLASSES,
        )
    if dataset == "cifar10":
        return ConstraintTables(
            dataset="cifar10",
            n_classes=10,
            triples=tuple(LabelTriple(*t) for t in _CIFAR10_TRIPLES),
            class_names=CIFAR10_CLASSES,
        )
    if dataset == "gtsrb":
        groups = tuple(ClassGroup(name, members) for name, members in _GTSRB_GROUPS)
        _check_disjoint(groups)
        return ConstraintTables(
            dataset="gtsrb",
            n_classes=43,
            groups=groups,
            class_names=GTSRB_CLASSES,
        )
    if dataset == "synthetic":
        return synthetic_tables()
    raise ValueError(
        f"unknown dataset {dataset!r}; choose fmnist, cifar10, gtsrb, or synthetic"
    )


def make_parse_context(tables: ConstraintTables, consts=None) -> ParseContext:
    """A parser context exposing the tables' groups under their names."""
    binding_sets = {}
    index_groups = {}
    if tables.groups:
        binding_sets["Groups"] = [g.members for g in tables.groups]
        for g in tables.groups:
            index_groups[g.name] = g.members
    return ParseContext(
        n_classes=tables.n_classes,
        binding_sets=binding_sets,
        index_groups=index_groups,
        consts=dict(consts or {}),
    )
