"""Workload plans and the answer oracle.

A :class:`Plan` is everything one run sends, derived from the seed alone:
the distinct read requests and the weights each connection draws them
with, the server's cache size and shard count, and the live-write script
(which paper title gains and loses the flip token, and which watches are
registered).  The server only ever sees the generated requests.

The :class:`Oracle` builds the same dataset in this process and answers
every distinct request through ``ServiceDispatcher.dispatch_safe``.  For
the live-write script it answers twice: with the flip token out of the
title (even versions) and in it (odd versions).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any

DATASET = "dblp"
SCALE = 1.0
#: entries per query page; keeps the hot working set (16 x 3 subjects)
#: inside the default 64-subject cache
PAGE_SIZE = 3
HOT_SURNAMES = 16
ZIPF_EXPONENT = 1.0
#: a token no generated title contains
FLIP_TOKEN = "benchflip"
#: watches whose keywords include the flip token but never match
OVERLAPPING_WATCHES = 3
#: watches on other title words (never re-evaluated by a flip)
OTHER_WATCHES = 4
WATCH_K = 5

#: per-call fields of a query response that legitimately differ between
#: two correct answers
PER_CALL_STATS = ("generation_seconds", "algorithm_seconds", "cached")

WORKLOADS = {
    # name: (shards, cache size, read mix, concurrent writer)
    "hot_read": (1, 64, "hot", False),
    "cold_read": (1, 16, "cold", False),
    "sharded_read": (2, 64, "hot", False),
    "live_rw": (1, 64, "hot", True),
}


@dataclass
class Plan:
    workload: str
    seed: int
    shards: int
    cache_size: int
    mix: str
    live: bool
    #: distinct read payloads and their draw weights
    reads: list[dict[str, Any]]
    weights: list[float]
    #: subjects the read mix can touch (the cache's working set)
    working_set: int
    flip_paper: int = 0
    flip_row: int = 0
    title_out: str = ""
    title_in: str = ""
    watches: list[list[str]] = field(default_factory=list)

    def sequence(self, stream: str) -> "random.Random":
        """A private, seeded request stream (one per connection)."""
        return random.Random(f"{self.seed}:{self.workload}:{stream}")

    def draw(self, rng: "random.Random") -> int:
        return rng.choices(range(len(self.reads)), weights=self.weights)[0]

    def flip(self, into: bool) -> dict[str, Any]:
        """The mutate payload moving the flip token into or out of the title."""
        return {
            "dataset": DATASET,
            "operations": [
                {
                    "op": "update",
                    "table": "paper",
                    "pk": self.flip_paper,
                    "set": {"title": self.title_in if into else self.title_out},
                }
            ],
        }


def _query(keywords: list[str]) -> dict[str, Any]:
    return {"dataset": DATASET, "keywords": keywords, "page_size": PAGE_SIZE}


def make_plan(workload: str, seed: int) -> Plan:
    from repro.core.builder import build_named_dataset
    from repro.search.tokenizer import tokenize

    shards, cache_size, mix, live = WORKLOADS[workload]
    db = build_named_dataset(DATASET, seed=seed, scale=SCALE).db
    rng = random.Random(f"{seed}:{workload}:plan")
    authors = [(row_id, row[1]) for row_id, row in db.table("author").scan()]

    by_surname: dict[str, list[int]] = {}
    for row_id, name in authors:
        by_surname.setdefault(tokenize(name)[1], []).append(row_id)
    if mix == "hot":
        candidates = sorted(s for s, ids in by_surname.items() if len(ids) >= PAGE_SIZE)
        surnames = rng.sample(candidates, HOT_SURNAMES)
        reads = [_query([surname]) for surname in surnames]
        weights = [1.0 / rank**ZIPF_EXPONENT for rank in range(1, len(reads) + 1)]
        working_set = PAGE_SIZE * len(reads)
    else:
        # each distinct first-name + surname pair once, as a conjunctive query
        pairs = sorted({tuple(tokenize(name)[:2]) for _row, name in authors})
        reads = [_query(list(pair)) for pair in pairs]
        weights = [1.0] * len(reads)
        working_set = len(authors)
    plan = Plan(
        workload, seed, shards, cache_size, mix, live, reads, weights, working_set
    )

    # the live-write script: a paper of the most popular hot surname, so
    # flips invalidate subjects the read mix keeps hot
    papers = db.table("paper")
    writes = db.table("writes")
    authors_pk = {db.table("author").row(r)[0] for r in by_surname[reads[0]["keywords"][-1]]}
    paper_pk = min(row[2] for _r, row in writes.scan() if row[1] in authors_pk)
    plan.flip_paper = paper_pk
    plan.flip_row = papers.row_id_for_pk(paper_pk)
    plan.title_out = papers.row(plan.flip_row)[1]
    plan.title_in = f"{plan.title_out} {FLIP_TOKEN}"
    in_title = set(tokenize(plan.title_out))
    counts: dict[str, int] = {}
    for _row, row in papers.scan():
        for token in set(tokenize(row[1])):
            if token.isalpha() and len(token) > 3 and token not in in_title:
                counts[token] = counts.get(token, 0) + 1
    common = sorted(counts, key=lambda t: (-counts[t], t))
    others = common[: OVERLAPPING_WATCHES + OTHER_WATCHES]
    plan.watches = (
        [[FLIP_TOKEN]]
        + [[FLIP_TOKEN, word] for word in others[:OVERLAPPING_WATCHES]]
        + [[word] for word in others[OVERLAPPING_WATCHES:]]
    )
    return plan


def comparable(body: Any) -> Any:
    """A query body without its per-call fields."""
    if not isinstance(body, dict) or "results" not in body:
        return body
    results = []
    for entry in body["results"]:
        entry = dict(entry)
        entry["stats"] = {
            k: v for k, v in entry.get("stats", {}).items() if k not in PER_CALL_STATS
        }
        results.append(entry)
    return {
        "results": results,
        "total_matches": body.get("total_matches"),
        "next_cursor": body.get("next_cursor"),
    }


class Oracle:
    """Expected answers, computed in-process on the same dataset."""

    def __init__(self, plan: Plan) -> None:
        from repro.core.builder import EngineBuilder
        from repro.service import Deployment
        from repro.service.dispatch import ServiceDispatcher

        session = EngineBuilder.named(DATASET, seed=plan.seed, scale=SCALE).build_session(
            cache_size=max(plan.working_set, plan.cache_size)
        )
        self.plan = plan
        self.dispatcher = ServiceDispatcher(Deployment().add_session(DATASET, session))
        #: (read index, flip token in title) -> comparable body
        self.expected: dict[tuple[int, bool], Any] = {}
        self._flipped = False

    def answers(self, wanted: "set[int]", state: bool = False) -> None:
        """Fill :attr:`expected` for the read indices in *wanted* under the
        given flip state (flipping in happens at most once, and last)."""
        if state and not self._flipped:
            self._flipped = True
            status, body = self.dispatcher.dispatch_safe(
                "/v1/mutate", self.plan.flip(True)
            )
            if status != 200:
                raise RuntimeError(f"oracle mutate failed: {body}")
        for index in sorted(wanted):
            if (index, state) not in self.expected:
                status, body = self.dispatcher.dispatch_safe(
                    "/v1/query", self.plan.reads[index]
                )
                self.expected[(index, state)] = (status, comparable(body))
