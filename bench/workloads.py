"""The benchmark's workloads: inputs made from a seed, and one pass's task list.

A task is one in-process call ``planefol.cli.main(["--format", "json", *argv])``.
Its id names its input and subcommand, never the seed, so ``reference.json``
can hold the exit code and stdout digest recorded for every id.

Seeded inputs come from finite pools of candidates. Each candidate is made
from its own name (``random.Random("planefol-bench/<name>")``), so a pool is
the same on every machine. The seed picks which candidates fill the pass.
Every slot draws from a band of candidates whose recorded outcome and time
are alike, so that two seeds run different inputs of about the same cost and
the run-to-run spread measures the program, not the draw.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import NamedTuple

WORKLOADS = ("generic", "pullback", "extactic", "resolve")

# Per-task ceiling in nominal seconds (see speed.py). A resolve task
# normally takes at most 0.7 s, so its ceiling stays short: the two hanging
# tasks of the ROADMAP item 3 field spend this long in every resolve pass.
CEILING_S = {"generic": 60.0, "pullback": 60.0, "extactic": 60.0, "resolve": 2.0}


class Task(NamedTuple):
    id: str
    argv: tuple  # "@name" entries are replaced by the path of inputs[name]
    inputs: dict  # name -> JSON object written to a file during set-up


# -- input generators -------------------------------------------------------------


def _term(c, i, j):
    return f"{c}*x^{i}*y^{j}"


def _poly(rng, degrees, coeff, must=()):
    """Random integer combination of the monomials of the given total degrees;
    the monomials in `must` get a nonzero coefficient."""
    terms = []
    for d in degrees:
        for i in range(d, -1, -1):
            c = rng.randint(-coeff, coeff)
            if c == 0 and (i, d - i) in must:
                c = rng.choice((-1, 1))
            if c:
                terms.append(_term(c, i, d - i))
    return " + ".join(terms) if terms else "0"


def dense_field(name, deg, coeff=3):
    """Dense field of degree `deg`; x^deg in P and y^deg in Q are nonzero, so
    the affine singular points form one cluster of deg^2 points."""
    rng = random.Random("planefol-bench/" + name)
    return {
        "P": _poly(rng, range(deg + 1), coeff, must={(deg, 0)}),
        "Q": _poly(rng, range(deg + 1), coeff, must={(0, deg)}),
    }


def degenerate_cubic(name, coeff=2):
    """Field of degree <= 3 with zero linear part at the origin and the
    invariant line y = 0 (Q is y times a polynomial of degree 1 to 2)."""
    rng = random.Random("planefol-bench/" + name)
    while True:
        P = _poly(rng, (2, 3), coeff)
        q = _poly(rng, (1, 2), coeff)
        if P != "0" and q != "0":
            return {"P": P, "Q": f"y*({q})"}


def lins_neto(alpha):
    """(x^3 - 1)(x - a y^2) d/dx + (y^3 - 1)(y - a x^2) d/dy as text."""
    a = str(Fraction(alpha))
    return {"P": f"(x^3 - 1)*(x - {a}*y^2)", "Q": f"(y^3 - 1)*(y - {a}*x^2)"}


def pullback2(alpha):
    """lins_neto(alpha) pulled back by (x, y) -> (x^2, y^2); the loader
    removes the common factor x*y."""
    a = str(Fraction(alpha))
    return {"P": f"y*(x^6 - 1)*(x^2 - {a}*y^4)",
            "Q": f"x*(y^6 - 1)*(y^2 - {a}*x^4)"}


# -- pools and fixed corpus -------------------------------------------------------

POOL_SIZE = {"g2": 16, "g3": 40, "g4": 24, "cubic0": 120}
ALPHAS = tuple(
    f"{p}/{q}" if q > 1 else str(p)
    for q in (1, 2, 3)
    for p in range(-4, 5)
    if p and Fraction(p, q).denominator == q
)

HAMILTONIAN = {"P": "3*x - 3*y^2", "Q": "3*x^2 - 3*y"}
ITEM3 = {"P": "1/2*x^2 - 2*x^2*y + 7/2*x*y^2", "Q": "2*y^3 - x + 2*x^3"}

FIELDS = {
    "saddle": {"P": "x", "Q": "-y"},
    "cusp": {"P": "2*y", "Q": "3*x^2"},
    "radial": {"P": "x", "Q": "y"},
    "saddle_node": {"P": "x^2", "Q": "y"},
    "lin23": {"P": "3*x", "Q": "2*y"},
    "shear": {"P": "x", "Q": "4*y - 2*x^2"},
}
CURVES = {
    "axis": {"f": "y"},
    "parabola": {"f": "y - x^2"},
    "fermat4": {"f": "x^4 + y^4 - 1"},
    "nodal": {"f": "y^2 - x^2*(x + 1)"},
    "cusp": {"f": "y^2 - x^3"},
}
ORACLES = {
    "squares": {"P": [str(n * n) for n in range(1, 12)]},
    "big": {"P": [str(n ** 3) for n in range(1, 12)]},
}


def _fol(name, field, cmd, *extra):
    return Task(f"{name}/{cmd}{''.join(extra)}", (cmd, "--foliation", "@fol") + extra,
                {"fol": field})


def _generic_tasks(name):
    """Degree 2: isolating boxes. Degree 3: singular points and their
    classification. Degree 4: singular points only, because classifying a
    16-point cluster takes 6-16 s, more than a pass can hold."""
    deg = int(name[1])
    # unit coefficients keep degree-4 costs in a narrower range
    field = dense_field(name, deg, coeff=1 if deg == 4 else 3)
    if deg == 2:
        return [_fol(name, field, "singularities", "--boxes")]
    if deg == 4:
        return [_fol(name, field, "singularities")]
    return [_fol(name, field, "singularities"), _fol(name, field, "classify")]


def _lins_tasks(alpha):
    field = lins_neto(alpha)
    name = f"lins({alpha})"
    return [_fol(name, field, "extactic", "--m", "2"),
            _fol(name, field, "first-integral", "--max-m", "3")]


def _cubic_tasks(name):
    field = degenerate_cubic(name)
    curve = {"f": "y"}
    return [
        _fol(name, field, "reduce"),
        _fol(name, field, "safe-resolve"),
        Task(f"{name}/index", ("index", "--foliation", "@fol", "--curve", "@curve"),
             {"fol": field, "curve": curve}),
        Task(f"{name}/index@0,0", ("index", "--foliation", "@fol", "--curve", "@curve",
                                  "--point", "0,0"),
             {"fol": field, "curve": curve}),
    ]


def pool(kind):
    """Candidate names of one pool."""
    if kind == "alpha":
        return list(ALPHAS)
    return [f"{kind}-{i}" for i in range(POOL_SIZE[kind])]


POOLS = {"generic": ("g2", "g3", "g4"), "pullback": (), "extactic": ("alpha",),
         "resolve": ("cubic0",)}


def candidate_tasks(kind, name):
    if kind == "alpha":
        return _lins_tasks(name)
    if kind == "cubic0":
        return _cubic_tasks(name)
    return _generic_tasks(name)


def fixed_tasks(workload):
    """Tasks every pass of `workload` runs, whatever the seed."""
    if workload == "generic":
        return []
    if workload == "pullback":
        # classify computes the singular points with their Milnor numbers
        # first, so the a = 0 foliation is analysed twice; the a = 1 census
        # refuses (a degree-12 cluster), which is the expected answer
        p0, p1 = pullback2("0"), pullback2("1")
        return [_fol("pullback(0)", p0, "classify"),
                Task("pullback(0)/census", ("examples", "census", "--foliation", "@fol"),
                     {"fol": p0}),
                Task("pullback(1)/census", ("examples", "census", "--foliation", "@fol"),
                     {"fol": p1})]
    if workload == "extactic":
        # the probes rule out m = 1, 2; at m = 3 the determinant vanishes and
        # is expanded in full
        return [_fol("hamiltonian", HAMILTONIAN, "first-integral", "--max-m", "4")]
    out = []
    for fname, field in FIELDS.items():
        out += [_fol(fname, field, cmd) for cmd in ("degree", "reduce", "safe-resolve")]
    sad = FIELDS["saddle"]
    for cname in ("axis", "parabola"):
        c = CURVES[cname]
        out.append(Task(f"saddle/invariant-check/{cname}",
                        ("invariant-check", "--foliation", "@fol", "--curve", "@curve"),
                        {"fol": sad, "curve": c}))
    out += [
        Task("saddle/index/axis", ("index", "--foliation", "@fol", "--curve", "@curve"),
             {"fol": sad, "curve": CURVES["axis"]}),
        Task("saddle/index@0,0/axis", ("index", "--foliation", "@fol", "--curve", "@curve",
                                       "--point", "0,0"),
             {"fol": sad, "curve": CURVES["axis"]}),
    ]
    for cname in ("fermat4", "nodal", "cusp"):
        out.append(Task(f"genus/{cname}", ("genus", "--curve", "@curve"),
                        {"curve": CURVES[cname]}))
    out.append(Task("genus/cusp--deltas", ("genus", "--curve", "@curve", "--deltas", "[1]"),
                    {"curve": CURVES["cusp"]}))
    out += [
        Task("bound/fi/squares", ("bound", "first-integral", "--d", "4", "--g", "2",
                                  "--oracle", "@oracle"), {"oracle": ORACLES["squares"]}),
        Task("bound/fi/height", ("bound", "first-integral", "--d", "5", "--g", "3",
                                 "--height", "2"), {}),
        Task("bound/ic/big", ("bound", "invariant-curve", "--d", "2", "--g", "0",
                              "--oracle", "@oracle", "--z-quasi-reduced"),
             {"oracle": ORACLES["big"]}),
    ]
    for family, params in (
        ("linear", '{"p": 2, "q": 3}'),
        ("lins_neto", '{"alpha": "2"}'),
        ("riccati_hypergeometric", '{"a": "-4", "b": "1/2", "c": "1/3"}'),
        ("power_pullback", '{"alpha": "2", "r": 2}'),
    ):
        out.append(Task(f"gen/{family}", ("examples", "gen", "--family", family,
                                          "--params", params), {}))
    out += [_fol("item3", ITEM3, "reduce"), _fol("item3", ITEM3, "safe-resolve")]
    return out


# -- seeded selection -------------------------------------------------------------

# (pool, how many, exit codes of the candidate's tasks, band of their summed
# recorded seconds). Bands are narrow so that every seed costs about the same.
SLOTS = {
    "generic": [
        ("g4", 1, (0,), 2.2, 2.8),
        ("g3", 2, (0, 3), 1.10, 1.32),
        ("g3", 1, (0, 0), 0.94, 1.14),
        ("g2", 6, (0,), 0.15, 0.24),
    ],
    "pullback": [],
    "extactic": [
        ("alpha", 1, (0, 0), 1.85, 2.10),
    ],
    "resolve": [
        ("cubic0", 5, (0, 3, 0, 0), 0.46, 0.65),
        ("cubic0", 3, (3, 3, 0, 0), 0.38, 0.70),
        ("cubic0", 1, (0, 0, 0, 0), 0.28, 0.70),
    ],
}


def band(reference, kind, exits, lo, hi):
    """Candidates of `kind` whose recorded exit codes are `exits` and whose
    recorded seconds sum to a value in [lo, hi]."""
    out = []
    for name in pool(kind):
        recs = [reference.get(t.id) for t in candidate_tasks(kind, name)]
        if any(r is None or "exit" not in r for r in recs):
            continue
        if tuple(r["exit"] for r in recs) != tuple(exits):
            continue
        if lo <= sum(r["seconds"] for r in recs) <= hi:
            out.append(name)
    return out


def tasks(workload, seed, reference):
    """The task list of one pass of `workload` for `seed`."""
    rng = random.Random(seed)
    out = []
    for kind, count, exits, lo, hi in SLOTS[workload]:
        names = band(reference, kind, exits, lo, hi)
        if len(names) < count:
            raise ValueError(f"{workload}: band {kind} {exits} [{lo}, {hi}] has "
                             f"{len(names)} candidates, needs {count}")
        for name in rng.sample(names, count):
            out += candidate_tasks(kind, name)
    return out + fixed_tasks(workload)


def every_task(workload):
    """Every task a pass of `workload` can run, for any seed."""
    out = [t for kind in POOLS[workload] for name in pool(kind)
           for t in candidate_tasks(kind, name)]
    return out + fixed_tasks(workload)
