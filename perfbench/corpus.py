"""Seeded synthetic corpus in the schema of the bundled CoNLL04 mini fixture.

Sentences are one to three relation clauses, each built from a template of
``scripts/make_fixture.py``'s five relations with freshly drawn entities.
Every entity surface occurs exactly once in its sentence, so first-occurrence
alignment recovers exactly the gold spans and the echo-gold mock scores
F1 = 1.0.  The same seed always gives the same files.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

HEADER = {
    "entity_types": ["Loc", "Org", "Other", "Per"],
    "relation_types": ["Kill", "Live_In", "Located_In", "OrgBased_In", "Work_For"],
}

FIRST = ("Anne", "Carlos", "Priya", "Omar", "Maria", "David", "Elena", "Walter",
         "Nadia", "Hans", "Rachel", "Viktor", "Yuki", "Kwame", "Ingrid", "Tomas",
         "Leila", "Mateo", "Sofia", "Dmitri", "Aisha", "Bruno", "Chloe", "Farid",
         "Greta", "Hugo", "Isabel", "Jonas", "Keiko", "Lars")
LAST = ("Meyer", "Ruiz", "Sharma", "Hassan", "Santos", "Chen", "Petrova", "Bishop",
        "Comaneci", "Gruber", "Green", "Krum", "Tanaka", "Mensah", "Larsen", "Novak",
        "Haddad", "Rossi", "Okafor", "Volkov", "Duarte", "Laurent", "Fischer",
        "Moreau", "Lindqvist", "Park", "Quinn", "Varga", "Wozniak", "Zeller")
ORG_HEAD = ("Acme", "Globex", "Initech", "Cyberdyne", "Tyrell", "Umbrella", "Stark",
            "Wayne", "Soylent", "Nakatomi", "Gringotts", "Oscorp", "Hooli", "Vandelay",
            "Monarch", "Aperture", "Wonka", "Dunder", "Prestige", "Massive")
ORG_TAIL = ("Corp", "Systems", "Industries", "Trading", "Software", "Labs",
            "Holdings", "Media", "Logistics", "Foods")
CITIES = ("Heidelberg", "Barcelona", "Mumbai", "Toronto", "Nairobi", "Boston",
          "Zurich", "Cairo", "Bucharest", "Salzburg", "Sunnyvale", "Berlin", "Bilbao",
          "Lisbon", "Oslo", "Kyoto", "Lagos", "Quito", "Hanoi", "Perth", "Tallinn",
          "Valencia", "Bergen", "Krakow", "Porto", "Leipzig", "Daegu", "Mombasa",
          "Cusco", "Adelaide")
COUNTRIES = ("Germany", "Spain", "India", "Canada", "Kenya", "Switzerland", "Egypt",
             "Romania", "Austria", "Bulgaria", "Portugal", "Norway", "Japan",
             "Nigeria", "Ecuador", "Vietnam", "Australia", "Estonia", "Poland", "Korea")

# relation -> (subject type, object type, templates over {s} and {o})
RELATIONS = {
    "Kill": ("Per", "Per", ("{s} shot {o}", "{s} killed {o}",
                            "{s} assassinated {o}", "{s} murdered {o}")),
    "Live_In": ("Per", "Loc", ("{s} lives in {o}", "{s} resides in {o}",
                               "{s} settled in {o}")),
    "Located_In": ("Loc", "Loc", ("{s} lies in {o}", "{s} is a city in {o}",
                                  "{s} sits in northern {o}")),
    "OrgBased_In": ("Org", "Loc", ("{s} is headquartered in {o}", "{s} is based in {o}",
                                   "{s} maintains offices in {o}")),
    "Work_For": ("Per", "Org", ("{s} works for {o}", "{s} joined {o}",
                                "{s} is employed by {o}")),
}
OPENERS = ("", "Reportedly , ", "Last year , ", "According to the press , ")
JOINERS = (" , and ", " ; meanwhile ", " , while ")


def _draw(rng: random.Random, etype: str, relation: str, role: str) -> str:
    if etype == "Per":
        return f"{rng.choice(FIRST)} {rng.choice(LAST)}"
    if etype == "Org":
        return f"{rng.choice(ORG_HEAD)} {rng.choice(ORG_TAIL)}"
    # a Located_In object is a country; every other location is a city
    if relation == "Located_In" and role == "object":
        return rng.choice(COUNTRIES)
    return rng.choice(CITIES)


def span(text: str, surface: str) -> list[int]:
    if text.count(surface) != 1:
        raise ValueError(f"{surface!r} must occur exactly once in {text!r}")
    start = text.index(surface)
    return [start, start + len(surface)]


Clause = tuple[str, str, str, str, str]  # predicate, subject type, subject, object type, object


def _sentence(rng: random.Random, n_triples: int) -> tuple[str, list[Clause]]:
    """One sentence of ``n_triples`` clauses whose surfaces each occur exactly
    once; draws that break uniqueness are redrawn from the same stream."""
    while True:
        clauses, triples = [], []
        for _ in range(n_triples):
            relation = rng.choice(sorted(RELATIONS))
            st, ot, templates = RELATIONS[relation]
            subj = _draw(rng, st, relation, "subject")
            obj = _draw(rng, ot, relation, "object")
            clauses.append(rng.choice(templates).format(s=subj, o=obj))
            triples.append((relation, st, subj, ot, obj))
        text = rng.choice(OPENERS) + rng.choice(JOINERS).join(clauses) + " ."
        surfaces = [t[2] for t in triples] + [t[4] for t in triples]
        if all(text.count(s) == 1 for s in surfaces):
            return text, triples


def _record(sid: str, text: str, triples) -> dict:
    return {
        "id": sid,
        "text": text,
        "triples": [
            {
                "predicate": pred,
                "subject_type": st,
                "subject": subj,
                "object_type": ot,
                "object": obj,
                "subject_span": span(text, subj),
                "object_span": span(text, obj),
            }
            for pred, st, subj, ot, obj in triples
        ],
    }


@dataclass(frozen=True)
class Corpus:
    pool_path: Path
    test_path: Path
    pool_size: int
    test_size: int
    duplicate_share: dict[str, float]


def _write_split(path: Path, prefix: str, size: int, rng: random.Random) -> float:
    """Write one split; returns its share of sentences whose text repeats an
    earlier one (a repeat is a cache hit even on a cold run)."""
    texts: set[str] = set()
    duplicates = 0
    with path.open("w", encoding="utf-8") as fh:
        fh.write(json.dumps(HEADER, ensure_ascii=False) + "\n")
        for k in range(1, size + 1):
            # 1, 2, 3 triples in turn: every seed gives the same mix, so sizes
            # in characters vary little from seed to seed
            text, triples = _sentence(rng, 1 + k % 3)
            duplicates += text in texts
            texts.add(text)
            fh.write(json.dumps(_record(f"{prefix}{k:05d}", text, triples),
                                ensure_ascii=False) + "\n")
    return duplicates / size


def generate(out_dir: Path, seed: int, pool_size: int, test_size: int) -> Corpus:
    """Write ``train.jsonl`` (the pool) and ``test.jsonl`` under ``out_dir``."""
    if pool_size < 3 or test_size < 1:
        raise ValueError("need a pool of at least 3 and a test set of at least 1")
    out_dir.mkdir(parents=True, exist_ok=True)
    pool_path, test_path = out_dir / "train.jsonl", out_dir / "test.jsonl"
    # distinct streams per split, so resizing one split leaves the other as is
    shares = {
        "pool": _write_split(pool_path, "p", pool_size, random.Random(f"{seed}/pool")),
        "test": _write_split(test_path, "t", test_size, random.Random(f"{seed}/test")),
    }
    return Corpus(pool_path, test_path, pool_size, test_size, shares)
