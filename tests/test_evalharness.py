from __future__ import annotations

import json
from dataclasses import replace

import pytest
import requests

from tcmrag.corpus import OVERLAP_WINDOW, TOKEN_CHUNK, load_corpus, render_demonstration
from tcmrag.dense import HttpEmbedProvider
from tcmrag.evalharness import (MODE_HYBRID_JIEBA, MODE_NAIVE_RAG, MODE_NONE, RUN_MODES,
                                ConfigurationError, EvalDeps, ItemResult, RunConfig,
                                ScoreReport, TaskError, TaskItem, answer_item, compare_runs,
                                echo_gold_provider, empty_answer_provider, load_tasks,
                                retrieval_sensitive_provider, run_eval, score_item)
from tcmrag.llm import FnChatProvider
from tcmrag.prompt import COT_STEP_HEADERS, Answer, build_prompt, parse_answer
from tcmrag.retrieve import RetrievalConfig, parent_case_id, two_stage_retrieve
from tcmrag.transport import PermanentError, ProviderError

# ---------------------------------------------------------------------------
# Task loading and validation
# ---------------------------------------------------------------------------

def test_fixture_tasks_load(task_items):
    assert len(task_items) == 20
    ids = [it.item_id for it in task_items]
    assert len(set(ids)) == 20
    for item in task_items:
        assert set(item.gold_pathogenesis) <= set(item.pathogenesis_options)
        assert set(item.gold_syndromes) <= set(item.syndrome_options)


def write_tasks(tmp_path, records):
    path = tmp_path / "tasks.jsonl"
    path.write_text("\n".join(json.dumps(r, ensure_ascii=False) for r in records) + "\n",
                    encoding="utf-8")
    return path


def task_record(**overrides):
    rec = {
        "item_id": "t1",
        "case_text": "病案文字。",
        "pathogenesis_options": ["肝气犯胃", "脾胃虚弱"],
        "syndrome_options": ["肝胃不和证", "脾虚证"],
        "gold_pathogenesis": ["肝气犯胃"],
        "gold_syndromes": ["肝胃不和证"],
    }
    rec.update(overrides)
    return rec


def test_load_tasks_rejects_few_options(tmp_path):
    path = write_tasks(tmp_path, [task_record(pathogenesis_options=["只有一个"],
                                              gold_pathogenesis=["只有一个"])])
    with pytest.raises(TaskError, match=">= 2 options"):
        load_tasks(path)


def test_load_tasks_rejects_duplicate_options(tmp_path):
    path = write_tasks(tmp_path, [task_record(syndrome_options=["甲证", "甲证"],
                                              gold_syndromes=["甲证"])])
    with pytest.raises(TaskError, match="duplicate strings"):
        load_tasks(path)


def test_load_tasks_rejects_empty_or_foreign_gold(tmp_path):
    path = write_tasks(tmp_path, [task_record(gold_syndromes=[])])
    with pytest.raises(TaskError, match="empty gold_syndromes"):
        load_tasks(path)
    path = write_tasks(tmp_path, [task_record(gold_pathogenesis=["场外选项"])])
    with pytest.raises(TaskError, match="not among options"):
        load_tasks(path)


def test_load_tasks_rejects_duplicate_ids_and_bad_json(tmp_path):
    path = write_tasks(tmp_path, [task_record(), task_record()])
    with pytest.raises(TaskError, match="duplicate item_id"):
        load_tasks(path)
    bad = tmp_path / "bad.jsonl"
    bad.write_text("{not json}\n", encoding="utf-8")
    with pytest.raises(TaskError, match=":1"):
        load_tasks(bad)


@pytest.mark.parametrize("record, message", [
    (["not", "an", "object"], r"tasks\.jsonl:1: record is not an object"),
    ({k: v for k, v in task_record().items() if k != "case_text"},
     r"tasks\.jsonl:1: missing keys \['case_text'\]"),
    (task_record(gold_case="c1"), r"tasks\.jsonl:1: unknown keys \['gold_case'\]"),
    # a string is not a list of options, though each gold label is a substring of it
    (task_record(pathogenesis_options="ab", gold_pathogenesis=["a"]),
     r"tasks\.jsonl:1: pathogenesis_options must be an array of strings"),
    (task_record(gold_syndromes="肝胃不和证"),
     r"tasks\.jsonl:1: gold_syndromes must be an array of strings"),
    (task_record(case_text=["病案文字。"]), r"tasks\.jsonl:1: case_text must be a string"),
    (task_record(item_id=7), r"tasks\.jsonl:1: item_id must be a string"),
    (task_record(syndrome_options=["肝胃不和证", 2]),
     r"tasks\.jsonl:1: syndrome_options must be an array of strings"),
], ids=["not_object", "missing_key", "unknown_key", "string_options", "string_gold",
        "list_case_text", "int_item_id", "int_option"])
def test_load_tasks_rejects_malformed_records(tmp_path, record, message):
    with pytest.raises(TaskError, match=message):
        load_tasks(write_tasks(tmp_path, [record]))


def test_load_tasks_rejects_a_lone_surrogate_naming_its_line(tmp_path):
    path = tmp_path / "tasks.jsonl"
    path.write_text(json.dumps(task_record(case_text="胃脘\udcff痛。")) + "\n", encoding="utf-8")
    with pytest.raises(TaskError, match=r"tasks\.jsonl:1: case_text holds a lone surrogate"):
        load_tasks(path)


# ---------------------------------------------------------------------------
# Scoring
# ---------------------------------------------------------------------------

def make_item(**overrides):
    rec = task_record(**overrides)
    return TaskItem(item_id=rec["item_id"], case_text=rec["case_text"],
                    pathogenesis_options=rec["pathogenesis_options"],
                    syndrome_options=rec["syndrome_options"],
                    gold_pathogenesis=rec["gold_pathogenesis"],
                    gold_syndromes=rec["gold_syndromes"])


def answer(patho, synd):
    return Answer(clinical_features=[], pathogenesis=patho, syndromes=synd, reasoning="")


def test_score_item_values():
    item = make_item(gold_pathogenesis=["肝气犯胃"], gold_syndromes=["肝胃不和证", "脾虚证"])
    assert score_item(answer(["肝气犯胃"], ["肝胃不和证", "脾虚证"]), item) == pytest.approx(1.0)
    assert score_item(answer([], []), item) == pytest.approx(0.0)
    # perfect pathogenesis, half-right syndromes: 0.5*1 + 0.5*0.5
    assert score_item(answer(["肝气犯胃"], ["肝胃不和证"]), item) == pytest.approx(0.75)
    # wrong pathogenesis pick: Jaccard({a},{b}) = 0
    assert score_item(answer(["脾胃虚弱"], ["肝胃不和证", "脾虚证"]), item) == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# Run configuration
# ---------------------------------------------------------------------------

def test_run_config_labels_and_variants(eval_setup, task_items, templates):
    assert RunConfig(retrieval_mode=MODE_NONE).label == "none"
    assert RunConfig(retrieval_mode=MODE_NONE, cot=True).label == "none+CoT"
    with pytest.raises(ConfigurationError):
        RunConfig(retrieval_mode="full_text")
    assert set(RUN_MODES) == {MODE_NONE, MODE_NAIVE_RAG, MODE_HYBRID_JIEBA}
    # the variant each run sends: rag/rag_cot when retrieval gave context, else base/cot
    corpus, retrievers = eval_setup
    expected = {(MODE_NONE, False): "base", (MODE_NONE, True): "cot",
                (MODE_NAIVE_RAG, False): "rag", (MODE_NAIVE_RAG, True): "rag_cot",
                (MODE_HYBRID_JIEBA, False): "rag", (MODE_HYBRID_JIEBA, True): "rag_cot"}
    for (mode, cot), variant in expected.items():
        chat, sent = recording_chat()
        run_eval(task_items[:1], RunConfig(retrieval_mode=mode, cot=cot),
                 make_deps(templates, corpus, retrievers, chat))
        assert [sent_variant(messages) for messages in sent] == [variant], (mode, cot)


# ---------------------------------------------------------------------------
# End-to-end evaluation runs (offline mocks)
# ---------------------------------------------------------------------------

EMPTY_ANSWER = json.dumps({"clinical_features": [], "pathogenesis": [], "syndromes": [],
                           "reasoning": ""})


def recording_chat():
    sent = []
    return FnChatProvider(fn=lambda messages: sent.append(messages) or EMPTY_ANSWER), sent


def sent_variant(messages) -> str:
    user = messages[1][1]
    rag = "【检索到的相关医案 CONTEXT】" in user
    cot = COT_STEP_HEADERS[0] in user
    return {(False, False): "base", (False, True): "cot",
            (True, False): "rag", (True, True): "rag_cot"}[(rag, cot)]


def no_token_item(like: TaskItem) -> TaskItem:
    return replace(like, item_id="no-tokens", case_text="？？")

@pytest.fixture(scope="module")
def eval_setup(sample_cases, sample_retrievers):
    retrievers = {MODE_NAIVE_RAG: sample_retrievers[OVERLAP_WINDOW],
                  MODE_HYBRID_JIEBA: sample_retrievers[TOKEN_CHUNK]}
    corpus = {c.case_id: c for c in sample_cases}
    return corpus, retrievers


def make_deps(templates, corpus, retrievers, chat) -> EvalDeps:
    return EvalDeps(templates=templates, chat=chat, corpus=corpus, retrievers=retrievers)


def test_echo_gold_scores_100_in_every_mode(eval_setup, task_items, templates):
    corpus, retrievers = eval_setup
    chat = echo_gold_provider(task_items)
    for mode in RUN_MODES:
        deps = make_deps(templates, corpus, retrievers, chat)
        report = run_eval(task_items, RunConfig(retrieval_mode=mode), deps)
        assert report.aggregate == pytest.approx(100.0), mode
        assert report.parse_failures == 0


def test_empty_answers_score_0(eval_setup, task_items, templates):
    corpus, retrievers = eval_setup
    deps = make_deps(templates, corpus, retrievers, empty_answer_provider())
    report = run_eval(task_items, RunConfig(retrieval_mode=MODE_NONE), deps)
    assert report.aggregate == pytest.approx(0.0)
    assert report.parse_failures == 0  # empty lists parse fine, they just score 0


def test_mode_none_never_touches_the_indexes(eval_setup, task_items, templates, monkeypatch):
    corpus, retrievers = eval_setup

    def never_called(*args, **kwargs):
        pytest.fail("mode none searched an index")

    for d in retrievers.values():
        monkeypatch.setattr(d.dense_index, "search", never_called)
        monkeypatch.setattr(d.kw_index, "search", never_called)
    deps = make_deps(templates, corpus, retrievers, echo_gold_provider(task_items))
    run_eval(task_items, RunConfig(retrieval_mode=MODE_NONE), deps)


def test_missing_retriever_is_a_configuration_error(task_items, templates):
    deps = EvalDeps(templates=templates, chat=empty_answer_provider(), corpus={})
    with pytest.raises(ConfigurationError, match="no index is loaded"):
        run_eval(task_items, RunConfig(retrieval_mode=MODE_NAIVE_RAG), deps)


def test_parse_failures_score_zero_and_are_counted(eval_setup, task_items, templates):
    corpus, retrievers = eval_setup
    deps = make_deps(templates, corpus, retrievers, FnChatProvider(fn=lambda m: "自由文本"))
    report = run_eval(task_items[:3], RunConfig(retrieval_mode=MODE_NONE), deps)
    assert report.parse_failures == 3
    assert report.aggregate == pytest.approx(0.0)
    assert all(not r.parsed and r.score == 0.0 for r in report.items)
    assert all(r.warnings for r in report.items)


def test_a_failed_chat_call_scores_its_item_0_and_is_counted_apart(eval_setup, task_items,
                                                                     templates):
    corpus, retrievers = eval_setup
    items = task_items[:3]
    gold = echo_gold_provider(items)

    def fn(messages):
        if items[1].case_text in messages[-1][1]:
            raise PermanentError("HTTP 400")
        return gold.fn(messages)

    deps = make_deps(templates, corpus, retrievers, FnChatProvider(fn=fn))
    report = run_eval(items, RunConfig(retrieval_mode=MODE_NONE), deps)
    assert (report.provider_failures, report.parse_failures) == (1, 0)
    assert report.aggregate == pytest.approx(200.0 / 3)
    by_id = {r.item_id: r for r in report.items}
    failed = by_id[items[1].item_id]
    assert (failed.parsed, failed.score, failed.answer) == (False, 0.0, "")
    assert failed.warnings == ["chat provider failed: HTTP 400"]
    assert all(by_id[it.item_id].score == 1.0 for it in (items[0], items[2]))
    doc = json.loads(report.to_json())
    assert (doc["provider_failures"], doc["parse_failures"]) == (1, 0)


def test_run_eval_parses_each_reply_once(eval_setup, task_items, templates, monkeypatch):
    from tcmrag import cli, evalharness, llm, prompt

    calls, parse_answer = [], prompt.parse_answer

    def counting(raw, item):
        calls.append(raw)
        return parse_answer(raw, item)

    for module in (prompt, llm, evalharness, cli):
        if hasattr(module, "parse_answer"):
            monkeypatch.setattr(module, "parse_answer", counting)
    gold = echo_gold_provider(task_items)
    first = task_items[0]

    def fn(messages):  # the first item's first reply is malformed, its repair is gold
        if len(messages) == 2 and first.case_text in messages[1][1]:
            return "不是JSON"
        return gold.fn(messages[:2])

    corpus, retrievers = eval_setup
    report = run_eval(task_items[:3], RunConfig(retrieval_mode=MODE_NONE),
                      make_deps(templates, corpus, retrievers, FnChatProvider(fn=fn)))
    assert report.aggregate == pytest.approx(100.0)
    assert len(calls) == 4  # one parse per reply: 1 + 1 + 2 (malformed, then repaired)


def test_run_eval_answers_a_no_token_item_without_context(eval_setup, task_items, templates):
    corpus, retrievers = eval_setup
    item = no_token_item(task_items[0])
    for mode in (MODE_NAIVE_RAG, MODE_HYBRID_JIEBA):
        for cot in (False, True):
            chat, sent = recording_chat()
            report = run_eval([item], RunConfig(retrieval_mode=mode, cot=cot),
                              make_deps(templates, corpus, retrievers, chat))
            assert [sent_variant(messages) for messages in sent] == \
                ["cot" if cot else "base"], (mode, cot)
            assert report.items[0].parsed
            warnings = report.items[0].warnings
            assert len(warnings) == 2 and "no searchable tokens" in warnings[0]
            assert warnings[1] == "nothing retrieved; answered without context"


def answered_prompt(item, corpus, retrievers, templates):
    """The retrieval of `item` from the hybrid index, the warnings of answering it with
    `corpus` as the demonstrations, and the user prompt that answer sent."""
    rdeps = retrievers[MODE_HYBRID_JIEBA]
    retrieved = two_stage_retrieve(item.case_text, rdeps, RetrievalConfig())
    chat, sent = recording_chat()
    _, warnings = answer_item(item, False, make_deps(templates, corpus, retrievers, chat),
                              retrieved, rdeps.chunk_texts)
    return retrieved, warnings, sent[0][1][1]


def retrieved_blocks(retrieved, retrievers):
    texts = retrievers[MODE_HYBRID_JIEBA].chunk_texts
    return [(c.chunk_id, texts[c.chunk_id]) for c in retrieved.candidates]


def test_answer_item_demonstrates_the_top_chunks_parent_case(eval_setup, task_items,
                                                              templates):
    corpus, retrievers = eval_setup
    item = task_items[0]
    retrieved, warnings, user = answered_prompt(item, corpus, retrievers, templates)
    blocks = retrieved_blocks(retrieved, retrievers)
    demo = render_demonstration(corpus[parent_case_id(blocks[0][0])])
    assert warnings == [] and demo in user
    assert user == build_prompt(item, "rag", templates, context_blocks=blocks,
                                demonstration=demo).user_text


def test_answer_item_with_nothing_retrieved_has_no_demonstration(eval_setup, task_items,
                                                                  templates):
    corpus, retrievers = eval_setup
    item = no_token_item(task_items[0])
    retrieved, warnings, user = answered_prompt(item, corpus, retrievers, templates)
    assert retrieved.candidates == []
    assert warnings == ["nothing retrieved; answered without context"]
    assert user == build_prompt(item, "base", templates).user_text
    assert "[示例病案 " not in user


def test_answer_item_without_the_parent_case_in_the_corpus_has_no_demonstration(
        eval_setup, task_items, templates):
    corpus, retrievers = eval_setup
    item = task_items[0]
    top = parent_case_id(two_stage_retrieve(item.case_text, retrievers[MODE_HYBRID_JIEBA],
                                            RetrievalConfig()).candidates[0].chunk_id)
    others = {case_id: case for case_id, case in corpus.items() if case_id != top}
    retrieved, warnings, user = answered_prompt(item, others, retrievers, templates)
    blocks = retrieved_blocks(retrieved, retrievers)
    assert warnings == [] and parent_case_id(blocks[0][0]) == top
    assert user == build_prompt(item, "rag", templates, context_blocks=blocks).user_text
    assert "[示例病案 " not in user and "(无示例)" in user


class FailingReranker:
    def rerank(self, query, documents):
        raise ProviderError("service unavailable")


def test_provider_fallbacks_count_only_rerank_failures(eval_setup, task_items, templates):
    corpus, retrievers = eval_setup
    chat, _ = recording_chat()
    items = task_items[:2] + [no_token_item(task_items[0])]
    # a query with no tokens warns but reaches no provider, so it is no fallback
    report = run_eval(items, RunConfig(retrieval_mode=MODE_HYBRID_JIEBA),
                      make_deps(templates, corpus, retrievers, chat))
    assert report.provider_fallbacks == 0
    assert report.warning_count == 2
    # a failed rerank provider falls back to fusion, once per item it was asked to rank
    failing = {MODE_HYBRID_JIEBA: replace(retrievers[MODE_HYBRID_JIEBA],
                                          rerank_provider=FailingReranker())}
    report = run_eval(items, RunConfig(retrieval_mode=MODE_HYBRID_JIEBA),
                      make_deps(templates, corpus, failing, chat))
    assert report.provider_fallbacks == 2
    assert report.warning_count == 4
    ranked = [r for r in report.items if r.item_id != "no-tokens"]
    assert all("fusion fallback" in r.warnings[0] for r in ranked)


def test_report_items_sorted_by_item_id(eval_setup, task_items, templates):
    corpus, retrievers = eval_setup
    deps = make_deps(templates, corpus, retrievers, echo_gold_provider(task_items))
    shuffled = list(reversed(task_items))
    report = run_eval(shuffled, RunConfig(retrieval_mode=MODE_NONE), deps)
    ids = [r.item_id for r in report.items]
    assert ids == sorted(ids)


def test_run_eval_is_deterministic(eval_setup, task_items, templates):
    corpus, retrievers = eval_setup
    chat = retrieval_sensitive_provider(task_items)
    deps = make_deps(templates, corpus, retrievers, chat)
    cfg = RunConfig(retrieval_mode=MODE_HYBRID_JIEBA, cot=True)
    first = run_eval(task_items, cfg, deps).to_json()
    second = run_eval(task_items, cfg, deps).to_json()
    assert first == second


class EmbeddingReply:
    status_code = 200

    def __init__(self, values):
        self.values = values

    def json(self):
        return {"data": [{"embedding": self.values}]}


def test_base_and_cot_runs_send_one_embedding_request_per_task_per_index(
        eval_setup, task_items, templates, monkeypatch):
    """With an HTTP embedder, the CoT run takes each pool the base run made: one paid
    request per task text per index, for the same reports a stub embedder gives."""
    corpus, stub_retrievers = eval_setup
    stub = stub_retrievers[MODE_NAIVE_RAG].embedder
    posted = []

    def post(url, json, headers, timeout):
        posted.append((url, json["input"][0]))
        return EmbeddingReply(stub.embed_raw(json["input"][0]).tolist())

    monkeypatch.setattr(requests, "post", post)
    http_retrievers = {mode: replace(d, embedder=HttpEmbedProvider(url=f"http://{mode}",
                                                                   model="m"))
                       for mode, d in stub_retrievers.items()}
    chat = retrieval_sensitive_provider(task_items)
    http_deps = make_deps(templates, corpus, http_retrievers, chat)
    for mode in (MODE_NAIVE_RAG, MODE_HYBRID_JIEBA):
        for cot in (False, True):
            cfg = RunConfig(retrieval_mode=mode, cot=cot)
            want = run_eval(task_items, cfg, make_deps(templates, corpus,
                                                       {mode: replace(stub_retrievers[mode])},
                                                       chat))
            assert run_eval(task_items, cfg, http_deps).to_json() == want.to_json()
    assert sorted(posted) == sorted((f"http://{mode}", it.case_text)
                                    for mode in (MODE_NAIVE_RAG, MODE_HYBRID_JIEBA)
                                    for it in task_items)


def test_retrieval_sensitive_ablation_ordering(eval_setup, task_items, templates):
    """The mock only answers when retrieval surfaces the right case, so scores must
    be monotone in retrieval quality: hybrid >= naive >= none."""
    corpus, retrievers = eval_setup
    chat = retrieval_sensitive_provider(task_items)
    scores = {}
    for mode in RUN_MODES:
        deps = make_deps(templates, corpus, retrievers, chat)
        scores[mode] = run_eval(task_items, RunConfig(retrieval_mode=mode), deps).aggregate
    assert scores[MODE_NONE] == pytest.approx(0.0)
    assert scores[MODE_HYBRID_JIEBA] >= scores[MODE_NAIVE_RAG] >= scores[MODE_NONE]
    assert scores[MODE_HYBRID_JIEBA] > 0.0


def test_report_json_shape(eval_setup, task_items, templates):
    corpus, retrievers = eval_setup
    deps = make_deps(templates, corpus, retrievers, echo_gold_provider(task_items))
    report = run_eval(task_items[:2], RunConfig(retrieval_mode=MODE_NAIVE_RAG), deps)
    text = report.to_json()
    assert text.endswith("\n")
    doc = json.loads(text)
    assert doc["label"] == "naive_rag"
    assert doc["config"]["retrieval_mode"] == "naive_rag"
    assert doc["config"]["cot"] is False
    assert len(doc["items"]) == 2
    assert "metric" in doc
    assert doc.keys() == {"label", "metric", "aggregate", "parse_failures", "provider_failures",
                          "prompt_failures", "provider_fallbacks", "warning_count", "config",
                          "items"}
    assert all(it.keys() == {"item_id", "score", "parsed", "answer", "warnings"}
               for it in doc["items"])
    fixed = ScoreReport(
        label="none", aggregate=50.0,
        items=[ItemResult("a", 1.0, True, '{"syndromes": ["脾虚证"]}'),
               ItemResult("b", 0.0, False, "", ["chat provider failed: HTTP 400"])],
        parse_failures=0, provider_failures=1, prompt_failures=0, provider_fallbacks=0,
        warning_count=1, config={"retrieval_mode": "none", "cot": False})
    assert fixed.to_json() == FIXED_REPORT_JSON


FIXED_REPORT_JSON = r"""{
  "aggregate": 50.0,
  "config": {
    "cot": false,
    "retrieval_mode": "none"
  },
  "items": [
    {
      "answer": "{\"syndromes\": [\"脾虚证\"]}",
      "item_id": "a",
      "parsed": true,
      "score": 1.0,
      "warnings": []
    },
    {
      "answer": "",
      "item_id": "b",
      "parsed": false,
      "score": 0.0,
      "warnings": [
        "chat provider failed: HTTP 400"
      ]
    }
  ],
  "label": "none",
  "metric": "artifact metric: 100 x mean of (Jaccard(pathogenesis)/2 + Jaccard(syndromes)/2)",
  "parse_failures": 0,
  "prompt_failures": 0,
  "provider_failures": 1,
  "provider_fallbacks": 0,
  "warning_count": 1
}
"""


CASE_RECORD = {"case_id": "c1", "patient_background": "男，45岁。", "clinical_info": "胃脘胀痛。",
               "pathogenesis": "肝气犯胃", "syndromes": ["肝胃不和证"]}


@pytest.mark.parametrize("loader, record, message", [
    (load_corpus, {k: v for k, v in CASE_RECORD.items() if k not in ("case_id", "syndromes")},
     "missing keys ['case_id', 'syndromes']"),
    (load_corpus, {**CASE_RECORD, "doctor_notes": "", "gold_case": "c1", "x": 1},
     "unknown keys ['gold_case', 'x']"),
    (load_tasks, {k: v for k, v in task_record().items()
                  if k not in ("syndrome_options", "gold_pathogenesis")},
     "missing keys ['syndrome_options', 'gold_pathogenesis']"),
    (load_tasks, {"extra": 0, **task_record(), "notes": ""},
     "unknown keys ['extra', 'notes']"),
], ids=["case_missing", "case_unknown", "task_missing", "task_unknown"])
def test_record_lines_name_their_missing_and_unknown_keys(tmp_path, loader, record, message):
    """Required keys are the dataclass fields without a default, listed in field order;
    unknown keys are listed in line order."""
    path = tmp_path / "records.jsonl"
    path.write_text(json.dumps(record, ensure_ascii=False) + "\n", encoding="utf-8")
    with pytest.raises(ValueError) as exc:
        loader(path)
    assert str(exc.value) == f"{path}:1: {message}"


def mock_answer(chat, item: TaskItem, variant, templates, **context) -> Answer:
    bundle = build_prompt(item, variant, templates, **context)
    raw = chat.fn([("system", bundle.system_text), ("user", bundle.user_text)])
    return parse_answer(raw, item)[0]


def test_mock_chats_answer_the_task_whose_case_the_prompt_asks_about(templates):
    """A task's case text may sit in another prompt's demonstration or context, or end
    another task's case text; the mocks answer the task rendered last, the longer on a tie."""
    a = make_item(item_id="a", case_text="嗳气吞酸。")
    b = make_item(item_id="b", case_text="胃脘胀痛，嗳气吞酸。",
                  gold_pathogenesis=["脾胃虚弱"], gold_syndromes=["脾虚证"])
    c = make_item(item_id="c", case_text="头晕目眩，耳鸣。", gold_pathogenesis=["脾胃虚弱"])
    gold = echo_gold_provider([a, b, c])
    for item, variant, context in [
            (b, "base", {}),
            (c, "rag", {"demonstration": a.case_text, "context_blocks": [("cb#0", "x")]}),
            (c, "rag_cot", {"context_blocks": [("ca#0", b.case_text)]})]:
        got = mock_answer(gold, item, variant, templates, **context)
        assert score_item(got, item) == 1.0, (item.item_id, variant)
    sensitive = retrieval_sensitive_provider([a, b, c])  # the gold case of item c is case c
    got = mock_answer(sensitive, c, "rag", templates,
                      demonstration=a.case_text, context_blocks=[("c#0", "x")])
    assert score_item(got, c) == 1.0
    got = mock_answer(sensitive, c, "rag", templates,
                      demonstration=a.case_text, context_blocks=[("a#0", "x")])
    assert score_item(got, c) == 0.0


# ---------------------------------------------------------------------------
# Comparison table
# ---------------------------------------------------------------------------

def report_with(label, aggregate, ids=("a", "b")):
    items = [ItemResult(item_id=i, score=aggregate / 100.0, parsed=True, answer="{}")
             for i in ids]
    return ScoreReport(label=label, aggregate=aggregate, items=items, parse_failures=0,
                       provider_failures=0, prompt_failures=0, provider_fallbacks=0,
                       warning_count=0, config={})


def test_compare_runs_orders_and_deltas():
    text, rows = compare_runs([report_with("none", 36.15), report_with("hybrid", 37.05)])
    assert [r["label"] for r in rows] == ["hybrid", "none"]
    assert rows[0]["delta"] == pytest.approx(0.0)
    assert rows[1]["delta"] == pytest.approx(-0.9)
    assert "hybrid" in text.splitlines()[2]
    assert "-0.90" in text
    assert "37.05" in text and "36.15" in text


def test_compare_runs_requires_two_matching_reports():
    with pytest.raises(ConfigurationError, match="at least 2"):
        compare_runs([report_with("solo", 10.0)])
    with pytest.raises(ConfigurationError, match="different item sets"):
        compare_runs([report_with("a", 10.0, ids=("x",)),
                      report_with("b", 20.0, ids=("y",))])


def test_compare_tie_breaks_by_label():
    _, rows = compare_runs([report_with("zeta", 50.0), report_with("alpha", 50.0)])
    assert [r["label"] for r in rows] == ["alpha", "zeta"]
