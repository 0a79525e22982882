"""Seeded input generator: case library, clinic query stream and ablation tasks.

Everything is built from the vocabulary of the shipped fixture generator
(`scripts/make_fixtures.py`) and checked against the shipped lexicon; nothing
is downloaded. The same (workload, seed) pair always gives byte-identical
inputs, because every random choice comes from one `random.Random` seeded with
a string, and no set or dict is iterated in hash order.
"""
from __future__ import annotations

import importlib.util
import json
import random
from dataclasses import asdict, dataclass
from pathlib import Path

from tcmrag.corpus import ClinicalCase

# Punctuation-only clinic queries. They do not depend on the seed: each one
# fails in the program today (empty token set), so `clinic` fails exactly
# one query per hundred in every run.
PUNCT_QUERIES = ("？？", "。。。", "！？", "……", "，、；", "？！。", "（）", "——")
PUNCT_EVERY = 100          # one punctuation-only query per hundred
MALFORMED_EVERY = 10       # one planted malformed first reply per ten tasks
OPENS = 5                  # cold query sessions (setup_s samples) per round

# Characters outside every lexicon word: they reach the HMM decoder.
OOV_CHARS = "昨晚今早觉偶感稍略颇屡逢秋春暮间午饭前暑燥雨变操熬坐"

HISTORIES = ("饮酒史十年", "思虑过度", "情志不遂半年", "形体肥胖", "久病体虚", "头晕三年",
             "畏寒多年", "嗜食肥甘", "久居湿地", "产后两年", "胃病十余年", "急躁易怒",
             "夜班工作", "反复感冒", "淋雨受凉", "高血压病史", "月经量多", "年老体弱",
             "暴饮暴食后", "劳累过度", "素体虚弱", "工作紧张")
VISIT_EFFECTS = ("减轻", "好转", "明显缓解", "渐消", "未作")
# Stock follow-up sentences: long multi-visit records repeat them verbatim.
FOLLOW_UPS = ("守方继服。", "诸症减轻。", "舌脉同前。", "纳眠可，二便调。", "效不更方。",
              "嘱忌食生冷。", "病情稳定。", "仍宗前法。", "续服七剂。", "调理善后。",
              "精神转佳。", "夜寐转安。", "每日一剂，水煎服。", "随访半年未复发。")
OPENERS = ("患者", "现有患者，", "病人", "求诊者", "某患者，")
SEPARATORS = ("，", "、", "；")
CLOSERS = ("请辨证分析。", "请问证属何型？", "求辨证。", "请给出病机与证型。")
ONSETS = ("近来", "近一月", "近半年", "反复", "")
CN_DIGITS = "零一二三四五六七八九"

# Query strengths, assigned by position in every ten queries or tasks so that
# gold_recall sits well inside (0, 1) with little spread across seeds.
FULL, PARTIAL, ATYPICAL = "full", "partial", "atypical"
STRENGTHS = (FULL,) * 6 + (PARTIAL,) * 2 + (ATYPICAL,) * 2


@dataclass(frozen=True)
class WorkloadSpec:
    cases: int                 # case library size, per round
    visits: tuple[int, int]    # follow-up visits per case, inclusive range
    queries: int               # query stream length per round, a multiple of 100
    modes: tuple[int, int, int]  # per hundred queries: hybrid, dense_only, sparse_only
    tasks: int                 # ablation task count, per round
    oov_rate: float            # chance of an out-of-lexicon insertion per query clause
    replay_tasks: bool         # query stream replays the task texts
    punct_queries: bool        # one punctuation-only query per hundred
    min_rounds: int            # rounds every run makes, whatever --seconds says


WORKLOADS: dict[str, WorkloadSpec] = {
    "library": WorkloadSpec(cases=250, visits=(8, 16), queries=1000, modes=(100, 0, 0),
                            tasks=80, oov_rate=0.0, replay_tasks=False,
                            punct_queries=False, min_rounds=3),
    # A library of the paper's scale: 3,000 cases, one chunk each per strategy.
    # One round's 1,100 queries leave 1,089 timed retrievals, 10 beyond p99.
    "clinic": WorkloadSpec(cases=3000, visits=(0, 2), queries=1100, modes=(80, 10, 10),
                           tasks=120, oov_rate=0.3, replay_tasks=False,
                           punct_queries=True, min_rounds=1),
    "ablation": WorkloadSpec(cases=120, visits=(0, 1), queries=600, modes=(100, 0, 0),
                             tasks=300, oov_rate=0.0, replay_tasks=True,
                             punct_queries=False, min_rounds=5),
}


@dataclass(frozen=True)
class Query:
    text: str
    mode: str              # retrieval mode: hybrid / dense_only / sparse_only
    gold_case: str | None  # None for punctuation-only queries


@dataclass(frozen=True)
class Task:
    item_id: str
    case_text: str
    pathogenesis_options: list[str]
    syndrome_options: list[str]
    gold_pathogenesis: list[str]
    gold_syndromes: list[str]
    gold_case: str
    malformed_first: bool


@dataclass(frozen=True)
class Inputs:
    workload: str
    seed: int
    round: int
    cases: list[ClinicalCase]
    queries: list[Query]
    tasks: list[Task]

    def to_json(self) -> str:
        """Canonical serialization, used to prove generation is deterministic."""
        doc = {"workload": self.workload, "seed": self.seed, "round": self.round,
               "cases": [asdict(c) for c in self.cases],
               "queries": [asdict(q) for q in self.queries],
               "tasks": [asdict(t) for t in self.tasks]}
        return json.dumps(doc, ensure_ascii=False, sort_keys=True)


def load_vocabulary(root: Path):
    """The fixture generator module, imported by path (its main() does not run)."""
    spec = importlib.util.spec_from_file_location("make_fixtures",
                                                  root / "scripts" / "make_fixtures.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def cn_number(n: int) -> str:
    """Chinese numeral for 1..99."""
    tens, ones = divmod(n, 10)
    if tens == 0:
        return CN_DIGITS[ones]
    head = "" if tens == 1 else CN_DIGITS[tens]
    return head + "十" + (CN_DIGITS[ones] if ones else "")


@dataclass(frozen=True)
class _Profile:
    archetype: int
    background: str
    symptoms: list[str]
    tongue: str
    coat: str
    pulse: str


class _Generator:
    def __init__(self, vocab, rng: random.Random) -> None:
        self.v = vocab
        self.rng = rng

    def pick(self, seq):
        return seq[self.rng.randrange(len(seq))]

    def _formula(self, base: str) -> str:
        if base in self.v.FORMULA_BASES:
            return base + self.pick(self.v.FORMULA_SUFFIX)
        return base + "汤"

    def case(self, case_id: str, visits: tuple[int, int]) -> tuple[ClinicalCase, _Profile]:
        v, rng = self.v, self.rng
        a = rng.randrange(len(v.CASE_SPECS))
        _bg, spec_sym, tongue, coat, pulse, patho, syndromes, formula = v.CASE_SPECS[a]
        sex = self.pick(("男", "女"))
        background = f"{sex}，{cn_number(rng.randint(18, 85))}岁，{self.pick(HISTORIES)}"
        symptoms = rng.sample(spec_sym, rng.randint(3, len(spec_sym)))
        for s in rng.sample(v.SYMPTOMS, 3):
            if s not in symptoms and len(symptoms) < 8:
                symptoms.append(s)
        if rng.random() < 0.3:
            tongue = self.pick(v.TONGUES)
        if rng.random() < 0.3:
            coat = self.pick(v.COATS)
        if rng.random() < 0.3:
            pulse = self.pick(v.PULSES)
        herbs = rng.sample(v.HERBS, rng.randint(6, 10))
        treat = rng.sample(v.TREATS, 2)
        notes = [f"治以{treat[0]}{treat[1]}，方用{self._formula(formula)}加减："
                 f"{'、'.join(herbs)}。每日一剂，水煎服。"]
        for visit in range(2, 2 + rng.randint(*visits)):
            note = [f"{cn_number(visit)}诊：服药{cn_number(self.pick((7, 14, 21)))}剂。"]
            note += rng.sample(FOLLOW_UPS, rng.randint(2, 4))
            if rng.random() < 0.3:
                better, still = rng.sample(symptoms, 2)
                note.append(f"{better}{self.pick(VISIT_EFFECTS)}，仍{still}。")
            if rng.random() < 0.3:
                note.append(f"守方去{self.pick(herbs)}，加{self.pick(v.HERBS)}。")
            notes.append("".join(note))
        case = ClinicalCase(
            case_id=case_id,
            patient_background=background + "。",
            clinical_info=f"症见{'、'.join(symptoms)}。舌{tongue}，苔{coat}，脉{pulse}。",
            pathogenesis="病机为" + "、".join(patho) + "。",
            syndromes=list(syndromes),
            doctor_notes="".join(notes),
            source="perfbench",
        )
        return case, _Profile(a, background, symptoms, tongue, coat, pulse)

    def _oov(self, text: str, rate: float) -> str:
        if rate and self.rng.random() < rate:
            return text + self.pick(OOV_CHARS) + self.pick(OOV_CHARS)
        return text

    def clinic_text(self, prof: _Profile, strength: str, other: _Profile,
                    oov_rate: float) -> str:
        """A fresh phrasing of a case's first visit; subset, order and separators vary.

        `full` names three to five of the case's symptoms and all three signs,
        `partial` two symptoms and one sign, and `atypical` one of its symptoms
        among three of `other`'s, with `other`'s signs.
        """
        rng = self.rng
        signs_of = lambda p: [f"舌{p.tongue}", f"苔{p.coat}", f"脉{p.pulse}"]  # noqa: E731
        if strength == FULL:
            syms = rng.sample(prof.symptoms, rng.randint(3, min(5, len(prof.symptoms))))
            signs = rng.sample(signs_of(prof), 3)
        elif strength == PARTIAL:
            syms = rng.sample(prof.symptoms, 2)
            signs = rng.sample(signs_of(prof), 1)
        else:
            syms = rng.sample(prof.symptoms, 1) + rng.sample(other.symptoms, 3)
            rng.shuffle(syms)
            signs = rng.sample(signs_of(other), 3)
        sep = self.pick(SEPARATORS)
        head = self.pick(OPENERS)
        if strength == FULL and rng.random() < 0.5:
            head += prof.background + "，"
        return (head + self.pick(ONSETS)
                + sep.join(self._oov(s, oov_rate) for s in syms) + "，"
                + "，".join(self._oov(s, oov_rate) for s in signs) + "，" + self.pick(CLOSERS))

    def task(self, item_id: str, case: ClinicalCase, prof: _Profile, text: str,
             malformed_first: bool) -> Task:
        v, rng = self.v, self.rng
        n = len(v.CASE_SPECS)
        gold_patho = "，".join(v.CASE_SPECS[prof.archetype][5])
        others = [(prof.archetype + k) % n for k in rng.sample(range(1, n), 3)]
        patho_options = sorted({gold_patho, *("，".join(v.CASE_SPECS[o][5]) for o in others)})
        gold_syn = [s + "证" for s in case.syndromes]
        syn_pool = [s + "证" for s in rng.sample(v.SYNDROMES20, 4)]
        syn_options = sorted({*gold_syn, *syn_pool})
        return Task(item_id=item_id, case_text=text, pathogenesis_options=patho_options,
                    syndrome_options=syn_options, gold_pathogenesis=[gold_patho],
                    gold_syndromes=gold_syn, gold_case=case.case_id,
                    malformed_first=malformed_first)


def generate(workload: str, seed: int, round_no: int, vocab) -> Inputs:
    """The inputs of one round of a workload run, a pure function of its arguments.

    Each round gets fresh cases, queries and tasks, so nothing repeats across
    rounds: all repetition is the workload's own, within a round.
    """
    spec = WORKLOADS[workload]
    gen = _Generator(vocab, random.Random(f"perfbench:{workload}:{seed}:{round_no}"))
    cases, profiles = [], []
    for i in range(spec.cases):
        case, prof = gen.case(f"{workload[0]}{round_no}-{i:05d}", spec.visits)
        cases.append(case)
        profiles.append(prof)

    tasks: list[Task] = []
    seen_texts: set[str] = set()
    while len(tasks) < spec.tasks:
        i, j = gen.rng.randrange(len(cases)), gen.rng.randrange(len(cases))
        text = gen.clinic_text(profiles[i], STRENGTHS[len(tasks) % len(STRENGTHS)],
                               profiles[j], spec.oov_rate)
        task = gen.task(f"t{len(tasks):05d}", cases[i], profiles[i], text,
                        malformed_first=len(tasks) % MALFORMED_EVERY == 0)
        # the chat mock finds an item by its case text inside the prompt, so no
        # task text may repeat or contain another
        if task.case_text in seen_texts or any(
                task.case_text in t or t in task.case_text for t in seen_texts):
            continue
        seen_texts.add(task.case_text)
        tasks.append(task)

    mode_names = ("hybrid", "dense_only", "sparse_only")
    queries: list[Query] = []
    if spec.replay_tasks:
        while len(queries) < spec.queries:
            t = tasks[len(queries) % len(tasks)]
            queries.append(Query(t.case_text, "hybrid", t.gold_case))
    else:
        while len(queries) < spec.queries:
            block = [m for m, count in zip(mode_names, spec.modes) for _ in range(count)]
            gen.rng.shuffle(block)
            for j, mode in enumerate(block):
                if len(queries) == spec.queries:
                    break
                if spec.punct_queries and j == PUNCT_EVERY // 2:
                    k = len(queries) // PUNCT_EVERY
                    queries.append(Query(PUNCT_QUERIES[k % len(PUNCT_QUERIES)], mode, None))
                    continue
                i, o = gen.rng.randrange(len(cases)), gen.rng.randrange(len(cases))
                strength = STRENGTHS[len(queries) % len(STRENGTHS)]
                queries.append(Query(gen.clinic_text(profiles[i], strength, profiles[o],
                                                     spec.oov_rate),
                                     mode, cases[i].case_id))
    return Inputs(workload=workload, seed=seed, round=round_no, cases=cases, queries=queries,
                  tasks=tasks)
