from __future__ import annotations

import json
from dataclasses import dataclass, field

import pytest
from hypothesis import given, strategies as st

from tcmrag.prompt import (ANSWER_KEYS, COT_STEP_HEADERS, COT_VARIANTS, RAG_VARIANTS, VARIANTS,
                           Answer, AnswerParseError, AnswerSchemaError, PromptError,
                           TemplateError, TemplateSet, build_prompt, parse_answer,
                           serialize_answer)


@dataclass
class Item:
    case_text: str = "患者胃脘胀痛，嗳气吞酸。"
    pathogenesis_options: list[str] = field(
        default_factory=lambda: ["肝气犯胃", "脾胃虚弱", "湿热中阻"])
    syndrome_options: list[str] = field(
        default_factory=lambda: ["肝胃不和证", "脾虚气滞证"])


BLOCKS = [("c1#0", "某案背景甲。"), ("c2#0", "某案背景乙。"), ("c3#0", "某案背景丙。")]
DEMO = "[示例病案 c9]\n症见头晕。"


# ---------------------------------------------------------------------------
# Template loading
# ---------------------------------------------------------------------------

def test_fixture_templates_load(templates):
    assert set(templates.user_templates) == set(VARIANTS)
    assert templates.system_text
    for variant in COT_VARIANTS:
        for header in COT_STEP_HEADERS:
            assert header in templates.user_templates[variant]
    for variant in ("base", "cot"):
        text = templates.user_templates[variant]
        assert "{{context}}" not in text and "{{demonstration}}" not in text


def write_template_dir(path, overrides=None):
    texts = {
        "system": "系统指令。",
        "base": "{{case}}\n{{options_pathogenesis}}\n{{options_syndromes}}",
        "cot": "{{case}}\n" + "\n".join(COT_STEP_HEADERS)
               + "\n{{options_pathogenesis}}\n{{options_syndromes}}",
        "rag": "{{demonstration}}\n{{context}}\n{{case}}\n"
               "{{options_pathogenesis}}\n{{options_syndromes}}",
        "rag_cot": "{{demonstration}}\n{{context}}\n{{case}}\n" + "\n".join(COT_STEP_HEADERS)
                   + "\n{{options_pathogenesis}}\n{{options_syndromes}}",
    }
    texts.update(overrides or {})
    for name, text in texts.items():
        if text is not None:
            (path / f"{name}.txt").write_text(text, encoding="utf-8")


def test_load_missing_file_is_error(tmp_path):
    write_template_dir(tmp_path, {"rag_cot": None})
    with pytest.raises(TemplateError, match="missing template"):
        TemplateSet.load(tmp_path)


def test_load_unknown_placeholder_is_error(tmp_path):
    write_template_dir(tmp_path, {"base": "{{case}} {{mystery}} {{options_pathogenesis}}"
                                          " {{options_syndromes}}"})
    with pytest.raises(TemplateError, match="mystery"):
        TemplateSet.load(tmp_path)


@pytest.fixture()
def tiny_templates(tmp_path):
    write_template_dir(tmp_path)
    return TemplateSet.load(tmp_path)


# ---------------------------------------------------------------------------
# Prompt building
# ---------------------------------------------------------------------------

def test_base_prompt_contains_case_and_numbered_options(tiny_templates):
    bundle = build_prompt(Item(), "base", tiny_templates)
    assert bundle.system_text == "系统指令。"
    assert bundle.user_text.startswith("患者胃脘胀痛")
    assert "1. 肝气犯胃" in bundle.user_text
    assert "3. 湿热中阻" in bundle.user_text
    assert "2. 脾虚气滞证" in bundle.user_text
    assert bundle.context_blocks == []
    assert "CONTEXT" not in bundle.user_text and "示例" not in bundle.user_text


def test_variant_separation(tiny_templates):
    """cot adds exactly the reasoning headers; rag adds exactly the context sections."""
    item = Item()
    base = build_prompt(item, "base", tiny_templates).user_text
    cot = build_prompt(item, "cot", tiny_templates).user_text
    rag = build_prompt(item, "rag", tiny_templates, context_blocks=BLOCKS,
                       demonstration=DEMO).user_text
    rag_cot = build_prompt(item, "rag_cot", tiny_templates, context_blocks=BLOCKS,
                           demonstration=DEMO).user_text
    for header in COT_STEP_HEADERS:
        assert header in cot and header in rag_cot
        assert header not in base and header not in rag
    for cid, text in BLOCKS:
        assert f"| {cid}]" in rag and f"| {cid}]" in rag_cot
        assert text in rag and text in rag_cot
    assert DEMO in rag and DEMO in rag_cot
    assert "CONTEXT" not in base and "CONTEXT" not in cot


def test_context_block_rendering(tiny_templates):
    bundle = build_prompt(Item(), "rag", tiny_templates, context_blocks=BLOCKS[:2])
    assert "[CONTEXT 1 | c1#0]\n某案背景甲。" in bundle.user_text
    assert "[CONTEXT 2 | c2#0]\n某案背景乙。" in bundle.user_text
    assert "(无示例)" in bundle.user_text  # demonstration placeholder text


def test_rag_with_demo_only_shows_empty_context_marker(tiny_templates):
    bundle = build_prompt(Item(), "rag", tiny_templates, demonstration=DEMO)
    assert "(无检索结果)" in bundle.user_text
    assert DEMO in bundle.user_text


def test_non_rag_variant_rejects_context(tiny_templates):
    with pytest.raises(PromptError, match="takes no context"):
        build_prompt(Item(), "base", tiny_templates, context_blocks=BLOCKS)
    with pytest.raises(PromptError, match="takes no context"):
        build_prompt(Item(), "cot", tiny_templates, demonstration=DEMO)


def test_rag_variant_requires_some_context(tiny_templates):
    with pytest.raises(PromptError, match="requires context"):
        build_prompt(Item(), "rag", tiny_templates)


def test_unknown_variant_and_empty_options(tiny_templates):
    with pytest.raises(PromptError, match="unknown variant"):
        build_prompt(Item(), "zero_shot", tiny_templates)
    with pytest.raises(PromptError, match="non-empty"):
        build_prompt(Item(pathogenesis_options=[]), "base", tiny_templates)


def test_truncation_drops_demonstration_first(tiny_templates):
    full = build_prompt(Item(), "rag", tiny_templates, context_blocks=BLOCKS,
                        demonstration=DEMO)
    size = len(full.system_text) + len(full.user_text)
    without_demo = build_prompt(Item(), "rag", tiny_templates, context_blocks=BLOCKS,
                                demonstration=None)
    cut = build_prompt(Item(), "rag", tiny_templates, context_blocks=BLOCKS,
                       demonstration=DEMO, budget=size - 1)
    assert DEMO not in cut.user_text
    assert cut.context_blocks == BLOCKS
    assert cut.user_text == without_demo.user_text


def test_truncation_then_drops_blocks_from_the_end(tiny_templates):
    no_demo = build_prompt(Item(), "rag", tiny_templates, context_blocks=BLOCKS)
    size = len(no_demo.system_text) + len(no_demo.user_text)
    cut = build_prompt(Item(), "rag", tiny_templates, context_blocks=BLOCKS,
                       demonstration=DEMO, budget=size - 1)
    assert DEMO not in cut.user_text
    assert cut.context_blocks == BLOCKS[:2]  # last block dropped first
    assert "c3#0" not in cut.user_text
    assert "c1#0" in cut.user_text and "c2#0" in cut.user_text


def test_truncation_irreducible_overflow_is_error(tiny_templates):
    with pytest.raises(PromptError, match="budget"):
        build_prompt(Item(), "rag", tiny_templates, context_blocks=BLOCKS,
                     demonstration=DEMO, budget=10)


def test_fixture_templates_fit_default_budget(templates, task_items):
    item = task_items[0]
    bundle = build_prompt(item, "rag_cot", templates, context_blocks=BLOCKS,
                          demonstration=DEMO)
    assert len(bundle.system_text) + len(bundle.user_text) <= 6000


# ---------------------------------------------------------------------------
# Answer parsing
# ---------------------------------------------------------------------------

def good_payload(**overrides):
    obj = {
        "clinical_features": ["胃脘胀痛", "嗳气"],
        "pathogenesis": ["肝气犯胃"],
        "syndromes": ["肝胃不和证"],
        "reasoning": "气机郁滞所致。",
    }
    obj.update(overrides)
    return obj


def test_parse_plain_json():
    answer, warnings = parse_answer(json.dumps(good_payload(), ensure_ascii=False), Item())
    assert warnings == []
    assert answer.pathogenesis == ["肝气犯胃"]
    assert answer.syndromes == ["肝胃不和证"]
    assert answer.reasoning == "气机郁滞所致。"


def test_parse_json_inside_code_fence_and_prose():
    raw = "好的，以下是分析：\n```json\n" + json.dumps(good_payload(), ensure_ascii=False) \
          + "\n```\n谢谢。"
    answer, warnings = parse_answer(raw, Item())
    assert answer.pathogenesis == ["肝气犯胃"]
    assert warnings == []


def test_parse_skips_earlier_non_object_braces():
    raw = "{not json} " + json.dumps(good_payload(), ensure_ascii=False)
    answer, _ = parse_answer(raw, Item())
    assert answer.syndromes == ["肝胃不和证"]


def test_parse_no_json_raises_parse_error():
    with pytest.raises(AnswerParseError, match="no JSON object") as exc:
        parse_answer("完全没有结构化输出", Item())
    assert not isinstance(exc.value, AnswerSchemaError)


@pytest.mark.parametrize("key, value", [("reasoning", "\ud800"),
                                        ("clinical_features", ["特征\udfff"])],
                         ids=["reasoning", "clinical_features"])
def test_parse_refuses_json_that_escapes_a_lone_surrogate(key, value):
    """A JSON escape such as "\\ud800" decodes to a lone surrogate, which no report or
    printed answer can encode; an escaped surrogate pair decodes to one character."""
    with pytest.raises(AnswerParseError, match="the reply's JSON holds a lone surrogate$"):
        parse_answer(json.dumps(good_payload(**{key: value})), Item())
    answer, _ = parse_answer(json.dumps(good_payload(reasoning="看\U0001f600")), Item())
    assert answer.reasoning == "看\U0001f600"


def test_parse_missing_key_raises_schema_error():
    payload = good_payload()
    del payload["syndromes"]
    with pytest.raises(AnswerSchemaError, match=r"missing required keys \['syndromes'\]") as exc:
        parse_answer(json.dumps(payload, ensure_ascii=False), Item())
    assert isinstance(exc.value, AnswerParseError)  # one class names every answer failure


def test_parse_wrong_types_raise_schema_error():
    with pytest.raises(AnswerSchemaError, match="reasoning"):
        parse_answer(json.dumps(good_payload(reasoning=[1])), Item())
    with pytest.raises(AnswerSchemaError, match="pathogenesis"):
        parse_answer(json.dumps(good_payload(pathogenesis="肝气犯胃"),
                                ensure_ascii=False), Item())
    with pytest.raises(AnswerSchemaError):
        parse_answer(json.dumps(good_payload(syndromes=[1, 2])), Item())


def test_parse_filters_out_of_option_values_with_warning():
    payload = good_payload(pathogenesis=["肝气犯胃", "自创病机"],
                           syndromes=["不存在证", "肝胃不和证"])
    answer, warnings = parse_answer(json.dumps(payload, ensure_ascii=False), Item())
    assert answer.pathogenesis == ["肝气犯胃"]
    assert answer.syndromes == ["肝胃不和证"]
    assert len(warnings) == 2
    assert any("自创病机" in w for w in warnings)
    assert any("不存在证" in w for w in warnings)


def test_parse_collapses_duplicates_to_first_occurrence():
    payload = good_payload(pathogenesis=["肝气犯胃", "肝气犯胃", "脾胃虚弱"],
                           clinical_features=["a", "b", "a", ""])
    answer, warnings = parse_answer(json.dumps(payload, ensure_ascii=False), Item())
    assert answer.pathogenesis == ["肝气犯胃", "脾胃虚弱"]
    assert answer.clinical_features == ["a", "b"]
    assert warnings == []


def test_answer_keys_constant_matches_serializer():
    answer = Answer(clinical_features=["a"], pathogenesis=["p"], syndromes=["s"],
                    reasoning="r")
    assert tuple(json.loads(serialize_answer(answer))) == ANSWER_KEYS


@given(st.lists(st.sampled_from(["肝气犯胃", "脾胃虚弱", "湿热中阻"]), max_size=4),
       st.lists(st.sampled_from(["肝胃不和证", "脾虚气滞证"]), max_size=3))
def test_serialize_parse_roundtrip(patho, synd):
    answer = Answer(clinical_features=["症状甲"], pathogenesis=patho, syndromes=synd,
                    reasoning="推理文字")
    parsed, warnings = parse_answer(serialize_answer(answer), Item())
    assert warnings == []

    def dedupe(vals):
        seen, out = set(), []
        for v in vals:
            if v not in seen:
                seen.add(v)
                out.append(v)
        return out

    assert parsed.pathogenesis == dedupe(patho)
    assert parsed.syndromes == dedupe(synd)
    assert parsed.reasoning == "推理文字"
