"""Seeded synthetic inputs for the benchmark.

`generate(out_dir, seed, per_stratum)` writes everything the program sees:

- `dataset.jsonl`: `per_stratum` snippets in each of the 35 NLOC strata,
  in restory's dataset format, each with a unique reference story;
- `cpp/<stratum>/<id>.cpp`: the same snippets as a source tree;
- `replies.json`: the provider stub's reply for each snippet, keyed by code.

The snippets mix line and block comments, comment markers inside string
and char literals, and blank lines; every snippet's NLOC is fixed by
construction and checked against `restory.corpus.count_nloc`. Identifiers
carry the record id, so no two records share code or a prompt and the
completion cache hides no work.

Replies are seeded perturbations of the reference stories, in fixed
shares, so the work per record is the same for every seed while the text
differs. The kinds span all three fidelity bands: light paraphrases,
heavy paraphrases, stories without a benefit clause, replies holding two
stories, and free text that does not parse.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from restory.corpus import STRATA, count_nloc

# Shares of reply kinds; counts are exact, so every seed does the same work.
REPLY_KINDS = (
    ("light-paraphrase", 0.3),
    ("heavy-paraphrase", 0.2),
    ("no-benefit", 0.15),
    ("multi-story", 0.15),
    ("free-text", 0.2),
)

ROLES = (
    "student", "teacher", "data analyst", "system administrator", "game player",
    "shop owner", "librarian", "researcher", "bank clerk", "warehouse manager",
    "contest judge", "mobile user", "tax accountant", "network engineer",
    "project manager", "nurse", "traveler", "music fan", "chess coach",
    "delivery driver",
)
ACTIONS = (
    "count", "sort", "filter", "merge", "compare", "search", "validate",
    "summarize", "convert", "schedule", "rank", "group", "encode", "decode",
    "measure", "track",
)
OBJECTS = (
    "the daily orders", "incoming sensor readings", "the list of prices",
    "student grades", "network packets", "bank transactions", "library loans",
    "match results", "shipping routes", "temperature logs", "user accounts",
    "inventory records", "exam scores", "flight bookings", "web requests",
    "chess moves",
)
QUALIFIERS = (
    "by date", "in a single pass", "before the deadline", "without duplicates",
    "for each region", "within the allowed limits", "in ascending order",
    "across all branches",
)
BENEFITS = (
    "I can spot problems early", "I save time on manual work",
    "the reports stay accurate", "I avoid costly mistakes",
    "customers get faster answers", "I can plan the next step",
    "the team trusts the numbers", "nothing gets lost",
)
SYNONYMS = {
    "count": "tally", "sort": "order", "filter": "screen", "merge": "combine",
    "compare": "contrast", "search": "scan", "validate": "verify",
    "summarize": "condense", "convert": "transform", "schedule": "plan",
    "rank": "grade", "group": "cluster", "encode": "pack", "decode": "unpack",
    "measure": "gauge", "track": "follow", "daily": "everyday",
    "orders": "purchases", "incoming": "arriving", "readings": "values",
    "list": "table", "prices": "costs", "grades": "marks", "packets": "frames",
    "transactions": "payments", "loans": "checkouts", "results": "outcomes",
    "routes": "paths", "logs": "records", "accounts": "profiles",
    "records": "entries", "scores": "points", "bookings": "reservations",
    "requests": "calls", "moves": "plays", "date": "day", "single": "one",
    "deadline": "cutoff", "duplicates": "repeats", "region": "area",
    "allowed": "permitted", "limits": "bounds", "ascending": "rising",
    "branches": "offices", "spot": "find", "problems": "issues",
    "early": "soon", "save": "spare", "time": "hours", "manual": "hand",
    "work": "labor", "reports": "summaries", "accurate": "correct",
    "avoid": "prevent", "costly": "expensive", "mistakes": "errors",
    "customers": "clients", "faster": "quicker", "answers": "replies",
    "plan": "prepare", "next": "following", "step": "move", "team": "crew",
    "trusts": "believes", "numbers": "figures", "nothing": "no item",
    "lost": "missed",
}
FREE_TEXT = (
    "The code reads {obj} and prints a summary for the {role} {qual}.",
    "This function loops over {obj}, keeps a running total and returns it.",
    "Reads input, then checks {obj} {qual} and writes the outcome to stdout.",
)

_CODE_LINES = (
    "int {v}_{k} = {n};",
    "{v}_acc += {n} * {v}_{k};",
    'const char* {v}_s{k} = "http://host/{v} // not a comment /* nor this */";',
    "char {v}_c{k} = '/';",
    "char {v}_q{k} = '\"';",
    'puts("it\'s {v} \\" quoted // still code");',
    "if ({v}_acc > {n}) {{ {v}_acc -= {n}; }}",
    "for (int i = 0; i < {n}; ++i) {v}_acc ^= i;",
    "while ({v}_acc > {n}) {v}_acc /= 2;",
    "{v}_acc = {v}_acc * 31 + {n}; // trailing comment with \"quotes\"",
    "{v}_acc += {n}; /* inline block comment */",
    "std::printf(\"%d\\n\", {v}_acc);",
)
_NON_CODE = (
    "",
    "    ",
    "    // line comment mentioning 'quotes' and \"strings\"",
    "    /* block comment on one line */",
    "    /*\n     * block comment over\n     * several lines with // inside\n     */",
)


@dataclass(frozen=True)
class Inputs:
    dataset: Path
    cpp_dir: Path
    replies: Path
    records: int
    nloc_by_path: dict[str, int]  # path relative to cpp_dir -> intended NLOC
    reply_kinds: dict[str, int]
    id_by_reply: dict[str, str]  # only replies that belong to one record
    id_by_reference: dict[str, str]


def _article(word: str) -> str:
    return "an" if word[0] in "aeiou" else "a"


def _story(role: str, goal: str, benefit: str | None) -> str:
    head = f"As {_article(role)} {role}, I want to {goal}"
    return f"{head} so that {benefit}." if benefit else f"{head}."


def _swap(rng: random.Random, text: str, count: int) -> str:
    words = text.split()
    slots = [i for i, w in enumerate(words) if w in SYNONYMS]
    for i in rng.sample(slots, min(count, len(slots))):
        words[i] = SYNONYMS[words[i]]
    return " ".join(words)


def make_reply(rng: random.Random, kind: str, role: str, goal: str, benefit: str) -> str:
    if kind == "light-paraphrase":
        return _story(role, _swap(rng, goal, 1), benefit)
    if kind == "heavy-paraphrase":
        other = rng.choice([b for b in BENEFITS if b != benefit])
        return _story(role, _swap(rng, goal, 3), _swap(rng, other, 2))
    if kind == "no-benefit":
        return _story(role, _swap(rng, goal, 1), None)
    if kind == "multi-story":
        second = f"{rng.choice(ACTIONS)} {rng.choice(OBJECTS)}"
        return " ".join([
            _story(role, _swap(rng, goal, 1), benefit),
            _story(role, second, rng.choice(BENEFITS)),
        ])
    if kind == "free-text":
        template = rng.choice(FREE_TEXT)
        return template.format(obj=rng.choice(OBJECTS), role=role, qual=rng.choice(QUALIFIERS))
    raise ValueError(f"unknown reply kind {kind!r}")


def make_code(rng: random.Random, tag: str, nloc: int) -> str:
    """C++ with exactly `nloc` code lines, plus comments and blank lines."""
    if nloc == 1:
        return f"int {tag}_one() {{ return {rng.randrange(100)}; }} // single line\n"
    body = [f"int {tag}_run(int {tag}_acc) {{"]
    body += [
        rng.choice(_CODE_LINES).format(v=tag, k=k, n=rng.randrange(1, 1000))
        for k in range(nloc - 2)
    ]
    body.append(f"return {tag}_acc; }}")
    lines = []
    for i, line in enumerate(body):
        if rng.random() < 0.25:
            lines.append(rng.choice(_NON_CODE))
        lines.append(line if i in (0, len(body) - 1) else "    " + line)
    if rng.random() < 0.5:  # a block comment opened after code and closed later
        lines[-1] += " /* closing note\n   ends here */"
    return "\n".join(lines) + "\n"


def _unique_story(rng: random.Random, used: set) -> tuple[str, str, str]:
    while True:
        role = rng.choice(ROLES)
        goal = f"{rng.choice(ACTIONS)} {rng.choice(OBJECTS)} {rng.choice(QUALIFIERS)}"
        benefit = rng.choice(BENEFITS)
        if (role, goal) not in used:
            used.add((role, goal))
            return role, goal, benefit


def generate(out_dir: Path, seed: int, per_stratum: int) -> Inputs:
    rng = random.Random(seed)
    total = per_stratum * len(STRATA)
    kinds = [k for k, share in REPLY_KINDS for _ in range(round(share * total))]
    kinds = (kinds + [REPLY_KINDS[0][0]] * total)[:total]
    rng.shuffle(kinds)

    out_dir = Path(out_dir)
    cpp_dir = out_dir / "cpp"
    used: set = set()
    rows, replies, nloc_by_path = [], {}, {}
    id_by_reply, id_by_reference = {}, {}
    for stratum in STRATA:
        for j in range(per_stratum):
            index = stratum.index * per_stratum + j
            rec_id = f"s{seed}-r{index:05d}"
            nloc = stratum.lower + j % (stratum.upper - stratum.lower + 1)
            tag = f"r{seed}x{index}"
            code = make_code(rng, tag, nloc)
            measured = count_nloc(code)
            if measured != nloc:
                raise RuntimeError(f"{rec_id}: generated NLOC {measured}, intended {nloc}")
            role, goal, benefit = _unique_story(rng, used)
            reference = _story(role, goal, benefit)
            reply = make_reply(rng, kinds[index], role, goal, benefit)
            rows.append({
                "code": code, "id": rec_id, "language": "cpp", "nloc": nloc,
                "reference_story": reference, "stratum": stratum.index,
            })
            replies[code.rstrip()] = reply
            rel = f"{stratum.index:02d}/{rec_id}.cpp"
            nloc_by_path[rel] = nloc
            id_by_reply[reply] = rec_id
            id_by_reference[reference] = rec_id

    for rel, row in zip(nloc_by_path, rows):
        path = cpp_dir / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(row["code"], encoding="utf-8")
    dataset = out_dir / "dataset.jsonl"
    dataset.write_text(
        "".join(json.dumps(r, sort_keys=True, ensure_ascii=False) + "\n" for r in rows),
        encoding="utf-8",
    )
    replies_path = out_dir / "replies.json"
    replies_path.write_text(json.dumps(replies, sort_keys=True), encoding="utf-8")
    reply_counts = Counter(replies.values())
    return Inputs(
        dataset=dataset,
        cpp_dir=cpp_dir,
        replies=replies_path,
        records=total,
        nloc_by_path=nloc_by_path,
        reply_kinds=dict(Counter(kinds)),
        id_by_reply={r: i for r, i in id_by_reply.items() if reply_counts[r] == 1},
        id_by_reference=id_by_reference,
    )
