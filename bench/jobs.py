"""Seeded job streams for the three benchmark workloads.

A workload is an endless sequence of rounds.  Every round of a workload has
the same composition: commands, fixtures, orders, powers and input sizes,
and for wick_orders the monomial shapes too.  The seed and the round number
supply the rest: coefficients, basepoints, variables and job order.  A fixed
composition keeps the cost of a round nearly the same from seed to seed, so
throughput and latency quantiles repeat, while fresh values in every round
keep a result cache from turning the benchmark into a lookup.

Every value is emitted as ``--flag=value``: argparse reads ``--at -1/2,1,1``
as a missing argument, and the benchmark must not depend on that defect.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

WORKLOADS = ("wick_orders", "coeff_dense", "cli_session")

FIXTURE_DIM = {"canonical2d": 2, "so3": 3, "nonpoisson4d": 4}
POISSON_FIXTURES = {"canonical2d": True, "so3": True, "nonpoisson4d": False}


@dataclass(frozen=True)
class Job:
    """One call of ``starprod.cli.main``.

    argv      the generated command line
    code      the exit code the job must return
    check     a law the report must satisfy, needing no stored value:
              ("agree",) koszul routes agree; ("poisson", bool) verdict of
              check-poisson; ("all_zero",) bv axioms hold; ("twin", key) the
              stdout equals that of the other job with the same key
    files     job files to write before the round, relative path -> text
    """

    argv: tuple[str, ...]
    code: int = 0
    check: Optional[tuple] = None
    files: tuple[tuple[str, str], ...] = ()


def rng_for(workload: str, seed: int, round_no: int) -> random.Random:
    # string seeds are hashed with sha512, so streams do not depend on
    # PYTHONHASHSEED or the platform
    return random.Random(f"{workload}/{seed}/{round_no}")


# expression text ----------------------------------------------------------------

def _rational(rng: random.Random, num: int, den: int) -> Fraction:
    return Fraction(rng.randint(1, num) * rng.choice((1, -1)),
                    rng.randint(1, den))


def _monomial(exponents: dict[str, int]) -> str:
    return "*".join(name if e == 1 else f"{name}^{e}"
                    for name, e in exponents.items() if e)


def _poly_text(terms: list[tuple[Fraction, str]]) -> str:
    """Render terms, leading with a positive one so no value starts with '-'."""
    terms = sorted(terms, key=lambda t: t[0] < 0)
    out = []
    for coeff, body in terms:
        mag = abs(coeff)
        text = body if mag == 1 and body else \
            (f"{mag}*{body}" if body else str(mag))
        if not out:
            out.append(text if coeff > 0 else f"0 - {text}")
        else:
            out.append(f" {'-' if coeff < 0 else '+'} {text}")
    return "".join(out)


def _shapes(rng: random.Random, dim: int, terms: tuple[int, int],
            max_degree: int) -> list[tuple[int, ...]]:
    """terms[0]..terms[1] distinct exponent vectors of degree 1..max_degree."""
    want = rng.randint(*terms)
    out: list[tuple[int, ...]] = []
    while len(out) < want:
        exps = [0] * dim
        for _ in range(rng.randint(1, max_degree)):
            exps[rng.randrange(dim)] += 1
        if tuple(exps) not in out:
            out.append(tuple(exps))
    return out


def _poly_from(rng: random.Random, labels: list[str],
               shapes: list[tuple[int, ...]]) -> str:
    return _poly_text([(_rational(rng, 9, 5), _monomial(dict(zip(labels, s))))
                       for s in shapes])


def random_poly(rng: random.Random, names: list[str], terms: tuple[int, int],
                max_degree: int) -> str:
    return _poly_from(rng, names, _shapes(rng, len(names), terms, max_degree))


# denominators of a linear form's coefficients, permuted per form; a fixed
# set keeps the bit size of L^k, and with it the cost, the same for all seeds
FORM_DENOMINATORS = (13, 11, 7, 5)


def linear_form(rng: random.Random, names: list[str],
                constant: bool = False) -> str:
    """A linear form with coefficients whose denominators are up to 13."""
    slots = names + [""] if constant else names
    dens = rng.sample(FORM_DENOMINATORS[:len(slots)], len(slots))
    terms = []
    for name, den in zip(slots, dens):
        num = rng.choice([n for n in range(1, 13) if math.gcd(n, den) == 1])
        terms.append((Fraction(num * rng.choice((1, -1)), den), name))
    return f"({_poly_text(terms)})"


def basepoint(rng: random.Random, dim: int) -> str:
    return ",".join(str(Fraction(rng.randint(-6, 6), rng.randint(1, 3)))
                    for _ in range(dim))


def _xs(dim: int) -> list[str]:
    return [f"x{i}" for i in range(1, dim + 1)]


def _field(dim: int, degree: int, components: dict[str, str]) -> str:
    return json.dumps({"dim": dim, "degree": degree,
                       "components": components}, sort_keys=True)


# wick_orders ----------------------------------------------------------------------

# (command, fixture, order, jobs per round, terms, max degree): 66 jobs at
# order 3, 32 at order 4 and 2 at order 5.  The costliest classes (so3 at
# order 4 associators and order 5) take 2-term inputs of degree 2: with
# degree 3 one such job can take 0.5-4 s and would dominate a round.
WICK_MIX = (
    ("star", "so3", 3, 22, (2, 3), 3),
    ("associator", "so3", 3, 16, (2, 3), 3),
    ("star", "so3", 4, 16, (2, 3), 3),
    ("associator", "so3", 4, 4, (2, 2), 2),
    ("star", "so3", 5, 1, (2, 2), 2),
    ("star", "nonpoisson4d", 3, 16, (2, 3), 3),
    ("associator", "nonpoisson4d", 3, 12, (2, 3), 3),
    ("star", "nonpoisson4d", 4, 8, (2, 3), 3),
    ("associator", "nonpoisson4d", 4, 4, (2, 3), 3),
    ("associator", "nonpoisson4d", 5, 1, (2, 3), 3),
)

# Relabelings under which the enumeration does exactly the same work:
# swapping x3 and x4 only flips the sign of nonpoisson4d.  Permutations of
# so3 map it to plus or minus itself but change the work by up to 8 %.
WICK_RELABEL = {
    "so3": [_xs(3)],
    "nonpoisson4d": [_xs(4), ["x1", "x2", "x4", "x3"]],
}


def _wick_shapes() -> list[tuple]:
    """The monomial shapes of every wick_orders job, the same in all rounds.

    The work a product does depends on which monomials its inputs have, and
    that varies a lot between random inputs of one class; fixing the shapes
    keeps each round's work the same, so seeds differ in coefficients,
    variable labels, basepoints and job order only.
    """
    rng = random.Random("wick_orders/shapes")
    out = []
    for command, fixture, order, count, terms, degree in WICK_MIX:
        factors = 3 if command == "associator" else 2
        for _ in range(count):
            out.append((command, fixture, order, [
                _shapes(rng, FIXTURE_DIM[fixture], terms, degree)
                for _ in range(factors)]))
    return out


WICK_SHAPES = _wick_shapes()


def _series_argv(rng: random.Random, command: str, fixture: str, order: int,
                 terms: tuple[int, int], max_degree: int) -> list[str]:
    dim = FIXTURE_DIM[fixture]
    names = _xs(dim)
    argv = [command, f"--alpha={fixture}"]
    for flag in ("f", "g", "h") if command == "associator" else ("f", "g"):
        argv.append(f"--{flag}={random_poly(rng, names, terms, max_degree)}")
    argv += [f"--at={basepoint(rng, dim)}", f"--order={order}"]
    return argv


def wick_orders(rng: random.Random) -> list[Job]:
    jobs = []
    for command, fixture, order, factors in WICK_SHAPES:
        labels = rng.choice(WICK_RELABEL[fixture])
        argv = [command, f"--alpha={fixture}"]
        for flag, shapes in zip(("f", "g", "h"), factors):
            argv.append(f"--{flag}={_poly_from(rng, labels, shapes)}")
        argv += [f"--at={basepoint(rng, len(labels))}", f"--order={order}"]
        jobs.append(Job(tuple(argv)))
    rng.shuffle(jobs)
    return jobs


# coeff_dense ----------------------------------------------------------------------

COEFF_POWERS = range(5, 15)
COEFF_REPEATS = 3
BV_SPACE = json.dumps({"fields": [["v", 0], ["w", 0], ["c", 1]]})


def _form_names(rng: random.Random, wide: bool) -> list[str]:
    """All three coordinates, or two of them."""
    return _xs(3) if wide else sorted(rng.sample(_xs(3), 2))


def _check_poisson_job(rng: random.Random, k: int, wide: bool,
                       poisson: bool) -> Job:
    """A bivector on R^3 whose Jacobi verdict is known in advance.

    With v = (A^23, -A^13, A^12), Jacobi holds exactly when v . curl v = 0.
    v = L^k u for a linear form L and a constant vector u gives zero.
    Adding lam*(-x2, x1, 1) leaves the constant 2*lam^2 in v . curl v, since
    every other term has L (no constant part) as a factor, so that bivector
    is not Poisson.
    """
    form = linear_form(rng, _form_names(rng, wide))
    u = [_rational(rng, 9, 7) for _ in range(3)]
    lam = _rational(rng, 5, 3) if not poisson else Fraction(0)
    extra = [(-lam, "x2"), (lam, "x1"), (lam, "")]
    components = {}
    for key, ui, (c, body) in zip(("2,3", "1,3", "1,2"), u, extra):
        sign = -1 if key == "1,3" else 1
        terms = [(sign * ui, f"{form}^{k}")]
        if c:
            terms.append((sign * c, body))
        components[key] = _poly_text(terms)
    argv = ("check-poisson", f"--alpha={_field(3, 2, components)}")
    return Job(argv, check=("poisson", poisson))


def _bv_job(rng: random.Random, k: int) -> Job:
    # parity-homogeneous triples: the five axioms hold identically
    constant = k == 5
    f = f"{linear_form(rng, ['v', 'cp'], constant)}^{k}"
    g = f"{linear_form(rng, ['w', 'v'], constant)}^{k // 2}*c"
    h = f"{linear_form(rng, ['v', 'w'], constant)}^{k // 2}*vp*c"
    argv = ("bv-check", f"--space={BV_SPACE}", f"--f={f}", f"--g={g}",
            f"--h={h}")
    return Job(argv, check=("all_zero",))


def _powered(rng: random.Random, k: int, wide: bool) -> str:
    return f"{linear_form(rng, _form_names(rng, wide))}^{k}"


def _schouten_job(rng: random.Random, k: int) -> Job:
    wide = k <= 6
    a = _field(3, 2, {"1,2": _powered(rng, k, wide),
                      "2,3": _powered(rng, k, wide)})
    b = _field(3, 1, {"1": _powered(rng, k, wide),
                      "3": _powered(rng, k, wide)})
    return Job(("schouten", f"--a={a}", f"--b={b}"))


def _koszul_job(rng: random.Random, k: int) -> Job:
    w1 = _field(3, 1, {"1": _powered(rng, k, False),
                       "2": _powered(rng, k, False)})
    w2 = _field(3, 1, {"3": _powered(rng, k, False)})
    argv = ("koszul", "--alpha=so3", f"--w1={w1}", f"--w2={w2}",
            "--route=both")
    return Job(argv, check=("agree",))


def coeff_dense(rng: random.Random) -> list[Job]:
    jobs = []
    for k in COEFF_POWERS:
        for rep in range(COEFF_REPEATS):
            jobs.append(_check_poisson_job(rng, k, k <= 7, rep % 2 == 0))
            jobs.append(_bv_job(rng, k))
            jobs.append(_schouten_job(rng, k))
            jobs.append(_koszul_job(rng, k))
    rng.shuffle(jobs)
    return jobs


# cli_session ----------------------------------------------------------------------

def _small_poly(rng: random.Random, dim: int) -> str:
    return random_poly(rng, _xs(dim), (1, 2), 2)


def _cli_star(rng: random.Random, command: str) -> list[str]:
    fixture = rng.choice(("so3", "nonpoisson4d", "canonical2d"))
    if command == "associator":
        order, terms = rng.randint(0, 1), (1, 2)
    else:
        order, terms = rng.randint(0, 2), (1, 3)
    argv = _series_argv(rng, command, fixture, order, terms, 2)
    if rng.random() < 0.2:
        argv[2] = f"--f=I*({argv[2][4:]})"
    return argv


def _cli_twins(rng: random.Random, key: str) -> list[Job]:
    # on the constant canonical2d structure the engine must reproduce moyal,
    # byte for byte, so both twins share one report format
    argv = _series_argv(rng, "star", "canonical2d", rng.randint(1, 3),
                        (1, 3), 3)
    if rng.random() < TEXT_SHARE:
        argv.insert(1, "--format=text")
    return [Job(tuple(argv), check=("twin", key)),
            Job(("moyal",) + tuple(argv[1:]), check=("twin", key))]


def _cli_check_poisson(rng: random.Random) -> Job:
    if rng.random() < 0.5:
        fixture = rng.choice(sorted(POISSON_FIXTURES))
        return Job(("check-poisson", f"--alpha={fixture}"),
                   check=("poisson", POISSON_FIXTURES[fixture]))
    return _check_poisson_job(rng, 2, False, rng.random() < 0.5)


def _cli_schouten(rng: random.Random) -> Job:
    dim = rng.randint(2, 3)
    da, db = rng.randint(1, 2), rng.randint(1, 2)
    keys = {1: [str(i) for i in range(1, dim + 1)],
            2: [f"{i},{j}" for i in range(1, dim + 1)
                for j in range(i + 1, dim + 1)]}

    def field(degree):
        chosen = rng.sample(keys[degree], rng.randint(1, len(keys[degree])))
        return _field(dim, degree, {k: _small_poly(rng, dim)
                                    for k in sorted(chosen)})

    return Job(("schouten", f"--a={field(da)}", f"--b={field(db)}"))


def _cli_koszul(rng: random.Random) -> Job:
    fixture = rng.choice(("so3", "canonical2d", "nonpoisson4d"))
    dim = FIXTURE_DIM[fixture]

    def form():
        chosen = rng.sample(range(1, dim + 1), rng.randint(1, dim))
        return _field(dim, 1, {str(i): _small_poly(rng, dim)
                               for i in sorted(chosen)})

    route = rng.choice(("both", "both", "geometric", "diagram"))
    argv = ("koszul", f"--alpha={fixture}", f"--w1={form()}",
            f"--w2={form()}", f"--route={route}")
    return Job(argv, check=("agree",) if route == "both" else None)


def _cli_bv(rng: random.Random) -> Job:
    f = f"({random_poly(rng, ['v', 'w', 'cp'], (1, 2), 2)})^{rng.randint(1, 2)}"
    g = f"({random_poly(rng, ['v', 'w'], (1, 2), 1)})*c"
    h = f"({random_poly(rng, ['v', 'w'], (1, 2), 1)} + 1)*vp*c"
    argv = ("bv-check", f"--space={BV_SPACE}", f"--f={f}", f"--g={g}",
            f"--h={h}")
    return Job(argv, check=("all_zero",))


def _cli_qme(rng: random.Random) -> Job:
    space = json.dumps({"fields": [["v", 0], ["c", 1]]})
    terms = [(_rational(rng, 5, 4), "vp*c")]
    if rng.random() < 0.5:
        terms.append((_rational(rng, 5, 4), "vp*v*c"))
    action = _poly_text(terms)
    argv = ["qme", f"--space={space}", f"--s={action}"]
    if rng.random() < 0.3:
        argv.append(f"--order={rng.randint(1, 3)}")
    return Job(tuple(argv))


def _cli_moduli(rng: random.Random, n: int, kind: str) -> Job:
    argv = ["moduli", f"--n={n}"]
    if kind == "codim":
        argv.append(f"--codim={rng.randint(1, 2)}")
    elif kind == "facets":
        argv.append("--facets")
    return Job(tuple(argv))


def _bad_jobs(rng: random.Random) -> list[Job]:
    # five parse errors (exit 2) and five refused orders (exit 3)
    out = []
    for _ in range(5):
        argv = _cli_star(rng, "star")
        argv[2] = argv[2] + " + (x1"
        out.append(Job(tuple(argv), code=2))
    for _ in range(5):
        argv = _cli_star(rng, "star")
        argv[-1] = "--order=7"
        out.append(Job(tuple(argv), code=3))
    return out


def _as_job_file(job: Job, name: str) -> Job:
    """The same job, read from a --json job file."""
    body: dict = {"command": job.argv[0]}
    for arg in job.argv[1:]:
        flag, eq, value = arg[2:].partition("=")
        body[flag.replace("-", "_")] = value if eq else True
    path = f"bench/.work/{name}.json"
    return Job((f"--json={path}",), job.code, job.check,
               ((path, json.dumps(body, sort_keys=True)),))


# (generator, jobs per round): 1,000 jobs, 30 of them moduli, 10 bad
CLI_MIX = (
    (lambda rng: Job(tuple(_cli_star(rng, "star"))), 150),
    (lambda rng: Job(tuple(_cli_star(rng, "associator"))), 100),
    (_cli_check_poisson, 100),
    (_cli_schouten, 100),
    (_cli_koszul, 100),
    (_cli_bv, 100),
    (_cli_qme, 130),
)
CLI_TWIN_PAIRS = 90
TEXT_SHARE = 0.3
JOB_FILE_SHARE = 0.05
# one counts job at n = 9 (about 0.8 s even with a warm tree cache)
CLI_MODULI = (
    (7, "counts", 5), (7, "codim", 8), (7, "facets", 3),
    (8, "counts", 2), (8, "codim", 4), (8, "facets", 3),
    (9, "counts", 1), (9, "codim", 1), (9, "facets", 3),
)


def cli_session(rng: random.Random, round_no: int) -> list[Job]:
    jobs = []
    for make, count in CLI_MIX:
        jobs.extend(make(rng) for _ in range(count))
    for pair in range(CLI_TWIN_PAIRS):
        jobs.extend(_cli_twins(rng, f"r{round_no}p{pair}"))
    for n, kind, count in CLI_MODULI:
        jobs.extend(_cli_moduli(rng, n, kind) for _ in range(count))
    jobs.extend(_bad_jobs(rng))
    rng.shuffle(jobs)
    out = []
    for index, job in enumerate(jobs):
        twin = job.check is not None and job.check[0] == "twin"
        if job.argv[0] != "moduli" and not twin \
                and rng.random() < TEXT_SHARE:
            job = Job(job.argv[:1] + ("--format=text",) + job.argv[1:],
                      job.code, job.check)
        if job.code == 0 and rng.random() < JOB_FILE_SHARE \
                and not any(a.partition("=")[2].startswith("-")
                            for a in job.argv):
            job = _as_job_file(job, f"r{round_no}j{index}")
        out.append(job)
    return out


def round_jobs(workload: str, seed: int, round_no: int) -> list[Job]:
    rng = rng_for(workload, seed, round_no)
    if workload == "wick_orders":
        return wick_orders(rng)
    if workload == "coeff_dense":
        return coeff_dense(rng)
    if workload == "cli_session":
        return cli_session(rng, round_no)
    raise ValueError(f"unknown workload {workload!r}")


# untimed jobs that finish lazy set-up (calibration, fixtures, the moduli
# tree cache) before the clock starts
WARMUP = {
    "wick_orders": (
        ("star", "--alpha=so3", "--f=x1*x2", "--g=x3", "--at=1,1,1",
         "--order=3"),
        ("associator", "--alpha=nonpoisson4d", "--f=x1", "--g=x3*x4",
         "--h=x2", "--at=1,0,1,1", "--order=3"),
    ),
    "coeff_dense": (
        ("check-poisson", "--alpha=so3"),
        ("bv-check", f"--space={BV_SPACE}", "--f=v*vp", "--g=c", "--h=w"),
        ("schouten", "--a=" + _field(3, 1, {"1": "x1"}),
         "--b=" + _field(3, 2, {"1,2": "x3"})),
        ("koszul", "--alpha=so3", "--w1=" + _field(3, 1, {"1": "x2"}),
         "--w2=" + _field(3, 1, {"2": "1"})),
    ),
}
WARMUP["cli_session"] = WARMUP["wick_orders"] + WARMUP["coeff_dense"] + (
    ("moyal", "--alpha=canonical2d", "--f=x1", "--g=x2", "--at=0,0"),
    ("qme", '--space={"fields": [["v", 0], ["c", 1]]}', "--s=vp*c"),
    ("moduli", "--n=9"),
)
