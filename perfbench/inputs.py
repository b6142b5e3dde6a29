"""Seeded input generation for the benchmark workloads.

Everything here is plain text built from a ``random.Random``: Declare
models, metaconstraint models, formula and regex texts, and traces.  The
module does not import ``ldlmon``, so the program under test receives only
the generated inputs and set-up time moves only with import cost and this
generation.

Run sizes scale with ``--seconds`` through per-workload rates measured at
the benchmark's first commit, so one run does a fixed amount of work and
both sides of a comparison do the same work.
"""
from __future__ import annotations

import random
import re
from dataclasses import dataclass, field

# Catalog patterns in the benchmark's own LTLf text.  The oracle checks
# every constraint against these texts, not against the program's catalog.
PATTERN_LTL = {
    "existence": "F {0}",
    "absence": "!(F {0})",
    "absence2": "!(F ({0} && X (F {0})))",
    "choice": "F ({0} || {1})",
    "responded_existence": "(F {0}) -> (F {1})",
    "response": "G ({0} -> X (F {1}))",
    "precedence": "((!{1}) U {0}) || !(F {1})",
    "not_coexistence": "!((F {0}) && (F {1}))",
    "succession": "(G ({0} -> X (F {1}))) && (((!{1}) U {0}) || !(F {1}))",
}
ARITY = {name: 2 if "{1}" in text else 1 for name, text in PATTERN_LTL.items()}

DECL_TASKS = (
    "order", "check", "pay", "pack", "ship",
    "bill", "notify", "refund", "cancel", "close",
)

# Each decl model has one of these pattern shapes, in equal numbers per
# run; the seed binds tasks and orders the models.  Fixing the mix of
# shapes keeps seed-to-seed variation down to the task bindings: with a
# free draw, a handful of heavy models decides a run's compile time.
DECL_SHAPES = (
    ("existence", "absence2", "choice", "responded_existence", "response"),
    ("absence2", "precedence", "not_coexistence", "responded_existence", "response"),
    ("existence", "choice", "precedence", "not_coexistence", "succession"),
    ("absence", "response", "precedence", "responded_existence", "choice"),
)

META_TASKS = ("pay", "acc", "get", "cancel", "ret")

PROPS = tuple(f"p{i}" for i in range(8))
USED_PROPS = PROPS[:3]
FORMULA_PROP_COUNTS = (3, 4, 5, 6, 7, 8)

# Work per second of --seconds, measured at the first commit on a 2-core
# x86 virtual machine so that a run takes about --seconds there.
DECL_MODELS_PER_S = 9.0
DECL_CASES = 6
META_MODELS_PER_S = 12.0
META_CASES = 6
FORMULAS_PER_S = 16.0
FORMULA_CASES = 4
STREAM_EVENTS_PER_S = 20_000
STREAM_BUILDS = 7


def pattern_text(pattern: str, args) -> str:
    return f"{pattern}({', '.join(args)})"


def pattern_ltl(pattern: str, args) -> str:
    return PATTERN_LTL[pattern].format(*args)


@dataclass
class DeclItem:
    text: str
    constraints: list  # (name as parse_decl names it, LTLf oracle text)
    cases: list


@dataclass
class MetaItem:
    text: str
    defines: dict  # name -> LTLf oracle text
    shows: list
    rv_refs: list  # (alphabet, referenced formula text, state, as_path)
    cases: list


@dataclass
class FormulaItem:
    kind: str  # "ltlf" or "re"
    text: str
    props: tuple
    cases: list  # lists of events, each a sorted tuple of true props


@dataclass
class StreamInputs:
    models: list  # (name, kind, texts, oracle); texts[0] is the one streamed
    traces: dict  # name -> list of task names
    cli_trace: list


@dataclass
class Inputs:
    items: list = field(default_factory=list)
    stream: StreamInputs | None = None


def random_case(rng, tasks, lo=5, hi=30) -> list:
    return [rng.choice(tasks) for _ in range(rng.randint(lo, hi))]


def decl_model(rng, shape, tasks=DECL_TASKS, n_cases=DECL_CASES) -> DeclItem:
    """A model with one constraint per pattern of the shape, distinct
    constraints (``parse_decl`` rejects a repeated line)."""
    lines: list = []
    oracle: list = []
    for pattern in shape:
        while True:
            args = rng.sample(tasks, ARITY[pattern])
            text = pattern_text(pattern, args)
            if text not in lines:
                break
        lines.append(text)
        oracle.append((text, pattern_ltl(pattern, args)))
    body = "tasks: " + ", ".join(tasks) + "\n" + "\n".join(lines) + "\n"
    cases = [random_case(rng, tasks) for _ in range(n_cases)]
    return DeclItem(body, oracle, cases)


def _define_body(rng, tasks, patterns) -> tuple[str, str]:
    """A define line body and its oracle text: one catalog pattern, or an
    ``ltl:`` conjunction of two or three."""
    if len(patterns) == 1:
        args = rng.sample(tasks, ARITY[patterns[0]])
        return pattern_text(patterns[0], args), pattern_ltl(patterns[0], args)
    parts = []
    for pattern in patterns:
        args = rng.sample(tasks, ARITY[pattern])
        parts.append("(" + pattern_ltl(pattern, args) + ")")
    formula = " && ".join(parts)
    return "ltl: " + formula, formula


# Define slots of a meta model: which patterns each define conjoins.
# Light patterns keep a directive within booking size; the two-pattern
# conjunction exercises the ``ltl:`` path.
META_DEFINE_PATTERNS = (
    (("responded_existence",), ("response",), ("precedence",), ("choice",)),
    (("not_coexistence",), ("absence2",), ("existence",)),
    (("existence", "absence2"), ("choice", "not_coexistence"),
     ("existence", "responded_existence")),
    (("existence",), ("choice",), ("absence2",)),
)


def meta_model(rng, tasks=META_TASKS, n_cases=META_CASES) -> MetaItem:
    names = ["d0", "d1", "d2", "d3"]
    defines: dict = {}
    lines = ["tasks: " + ", ".join(tasks), ""]
    for name, choices in zip(names, META_DEFINE_PATTERNS):
        body, oracle = _define_body(rng, tasks, rng.choice(choices))
        defines[name] = oracle
        lines.append(f"define {name}: {body}")
    shows = ["d0", "d1"]
    lines += [f"show {name}" for name in shows]
    state = rng.choice(("TF", "TT"))
    task = rng.choice(tasks)
    ctx = rng.choice(("d0", "d2"))
    comp_target, comp_with = rng.choice((("d1", "d3"), ("d0", "d3")))
    reactive = rng.random() < 0.5
    first, second = rng.sample(("d0", "d1", "d2"), 2)
    preferred, other = rng.sample(("d1", "d3", "d0"), 2)
    lines += [
        f"meta ma: absence {task} when {ctx} = {state}",
        f"meta mc: compensate {comp_target} with {comp_with}" + (" reactive" if reactive else ""),
        f"meta mr: compensate {comp_with} with {comp_target} reactive",
        f"meta mx: conflict {first} {second}",
        f"meta mp: prefer {preferred} over {other}",
    ]
    alpha = tuple(tasks)
    refs = [
        (alpha, defines[ctx], state, True),
        (alpha, defines[comp_target], "PF", False),
        (alpha, defines[comp_with], "PF", False),
        (alpha, defines[comp_with], "PF", True),
        (alpha, "(" + defines[first] + ") && (" + defines[second] + ")", "PF", False),
        (alpha, defines[first], "PF", False),
        (alpha, defines[second], "PF", False),
        (alpha, "(" + defines[preferred] + ") && (" + defines[other] + ")", "PF", True),
    ]
    if reactive:
        refs.append((alpha, defines[comp_target], "PF", True))
    cases = [random_case(rng, tasks, 5, 12) for _ in range(n_cases)]
    return MetaItem("\n".join(lines) + "\n", defines, shows, refs, cases)


# LTLf shapes over three literals; a formula item joins two of them.
LTLF_SHAPES = (
    "G ({0} -> F {1})",
    "F ({0} && X {1})",
    "({0}) U ({1})",
    "({0}) R ({1})",
    "G ({0} || X {1})",
    "F G {0}",
    "G F {0}",
    "X X {0}",
    "{0} -> X (({1}) U ({2}))",
    "WX ({0} && F {1})",
)
CONNECTIVES = ("&&", "||", "->")


def literal(rng, atoms) -> str:
    atom = rng.choice(atoms)
    return atom if rng.random() < 0.7 else "!" + atom


def random_ltlf(rng, atoms, design: int) -> str:
    """Two LTLf shapes joined by a connective, all three fixed by
    ``design``; the literals come from ``rng``."""
    first = LTLF_SHAPES[design * 7 % len(LTLF_SHAPES)]
    second = LTLF_SHAPES[(design * 3 + design // 10) % len(LTLF_SHAPES)]
    parts = [
        "(" + shape.format(*(literal(rng, atoms) for _ in range(3))) + ")"
        for shape in (first, second)
    ]
    return f" {CONNECTIVES[design % len(CONNECTIVES)]} ".join(parts)


def guard(rng, atoms) -> str:
    lits = [literal(rng, atoms) for _ in range(rng.randint(1, 2))]
    return lits[0] if len(lits) == 1 else "(" + " && ".join(lits) + ")"


def random_regex(rng, atoms, design: int, blocks: int = 6) -> str:
    """A union of two sequences of ``blocks`` blocks each: a guard, a
    starred guard, a union of guards or a starred pair of guards.  The
    block kinds are fixed by ``design``; the guards come from ``rng``."""
    kinds = random.Random(f"regex-design:{design}")

    def block() -> str:
        roll = kinds.random()
        if roll < 0.4:
            return guard(rng, atoms)
        if roll < 0.6:
            return "(" + guard(rng, atoms) + ")*"
        if roll < 0.85:
            return "(" + guard(rng, atoms) + " + " + guard(rng, atoms) + ")"
        return "(" + guard(rng, atoms) + " ; " + guard(rng, atoms) + ")*"

    return " + ".join(
        "(" + " ; ".join(block() for _ in range(blocks)) + ")" for _ in range(2)
    )


def random_letter(rng, props) -> tuple:
    return tuple(p for p in props if rng.random() < 0.5)


def formula_item(rng, index: int) -> FormulaItem:
    """Item ``index`` of a run: its proposition count, kind and shape
    design follow from the index, so every run has the same mix of
    alphabet sizes and formula shapes; literals and traces are seeded.
    With free random trees, a few large automata decide a run's time."""
    n_props = FORMULA_PROP_COUNTS[index % len(FORMULA_PROP_COUNTS)]
    props = PROPS[:n_props]
    design = index // (2 * len(FORMULA_PROP_COUNTS))
    if (index // len(FORMULA_PROP_COUNTS)) % 2 == 0:
        kind, text = "ltlf", random_ltlf(rng, USED_PROPS, design)
    else:
        kind, text = "re", random_regex(rng, USED_PROPS, design)
    cases = [
        [random_letter(rng, props) for _ in range(rng.randint(3, 10))]
        for _ in range(FORMULA_CASES)
    ]
    return FormulaItem(kind, text, props, cases)


STREAM_DECL_SHAPE = (
    "existence", "absence2", "choice", "responded_existence",
    "response", "precedence", "not_coexistence",
)


# Oracle texts of the constraints in samples/booking.decl and of the
# shown constraints in samples/booking.meta, as (name, LTLf text).
BOOKING_ORACLE = [
    ("absence2(pay)", pattern_ltl("absence2", ["pay"])),
    ("responded_existence(pay, acc)", pattern_ltl("responded_existence", ["pay", "acc"])),
    ("precedence(pay, get)", pattern_ltl("precedence", ["pay", "get"])),
    ("response(pay, get)", pattern_ltl("response", ["pay", "get"])),
    ("not_coexistence(get, cancel)", pattern_ltl("not_coexistence", ["get", "cancel"])),
]
BOOKING_META_ORACLE = [
    ("re1", pattern_ltl("responded_existence", ["pay", "acc"])),
    ("ncx", pattern_ltl("not_coexistence", ["get", "cancel"])),
]


def renamed_copies(text: str, tasks) -> list:
    """The model text and ``STREAM_BUILDS - 1`` copies with every task
    renamed.  Each copy is built once: the copies are the same work to
    compile, and a renamed model misses the program's expansion cache,
    so every build of the stream workload is a cold one."""
    pattern = re.compile(r"\b(" + "|".join(map(re.escape, tasks)) + r")\b")
    return [text] + [
        pattern.sub(lambda m: f"{m.group(1)}_{copy}", text)
        for copy in range(1, STREAM_BUILDS)
    ]


def build(workload: str, seed: int, seconds: float, booking: dict) -> Inputs:
    """The inputs of one run.  ``booking`` holds the texts of the booking
    samples, which the stream workload monitors."""
    rng = random.Random(f"{workload}:{seed}")
    inputs = Inputs()
    if workload == "decl":
        n = max(len(DECL_SHAPES), round(DECL_MODELS_PER_S * seconds))
        n -= n % len(DECL_SHAPES)
        shapes = [DECL_SHAPES[i % len(DECL_SHAPES)] for i in range(n)]
        rng.shuffle(shapes)
        inputs.items = [decl_model(rng, shape) for shape in shapes]
    elif workload == "meta":
        n = max(1, round(META_MODELS_PER_S * seconds))
        inputs.items = [meta_model(rng) for _ in range(n)]
    elif workload == "formulas":
        n = max(len(FORMULA_PROP_COUNTS) * 2, round(FORMULAS_PER_S * seconds))
        n -= n % (len(FORMULA_PROP_COUNTS) * 2)
        order = list(range(n))
        rng.shuffle(order)
        inputs.items = [formula_item(rng, i) for i in order]
    elif workload == "stream":
        # The models are fixed, so compile figures on this workload do not
        # move with the seed; the traces are seeded.
        mid = decl_model(random.Random("stream-model"), STREAM_DECL_SHAPE, n_cases=0)
        events = max(1000, round(STREAM_EVENTS_PER_S * seconds))
        booking_tasks = ("pay", "acc", "get", "cancel")
        meta_tasks = ("pay", "acc", "get", "cancel", "return")
        inputs.stream = StreamInputs(
            models=[
                ("booking", "decl", renamed_copies(booking["decl"], booking_tasks),
                 BOOKING_ORACLE),
                ("booking_meta", "meta", renamed_copies(booking["meta"], meta_tasks),
                 BOOKING_META_ORACLE),
                ("mid", "decl", renamed_copies(mid.text, DECL_TASKS), mid.constraints),
            ],
            traces={
                "booking": rng.choices(booking_tasks, k=events),
                "booking_meta": rng.choices(meta_tasks, k=events),
                "mid": rng.choices(DECL_TASKS, k=events),
            },
            cli_trace=rng.choices(booking_tasks, k=2000),
        )
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return inputs
