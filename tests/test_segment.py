from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from itertools import groupby, product

import pytest
from hypothesis import given, strategies as st

from tcmrag import segment
from tcmrag.segment import (TIE_TOLERANCE, HmmModel, HmmModelError, Lexicon, LexiconError,
                            build_lexicon, cut, load_hmm, load_lexicon, max_prob_route,
                            token_set, viterbi)

# ---------------------------------------------------------------------------
# Oracles: brute-force enumeration, independent of the DP/Viterbi code paths
# ---------------------------------------------------------------------------

def word_prob(word: str, lex: Lexicon) -> Fraction:
    """freq/total exactly; an unknown single character counts as 1/total."""
    return Fraction(max(lex.entries.get(word, 0), 1), lex.total)


def all_segmentations(sentence: str, lex: Lexicon):
    """Every split into dictionary words or single characters."""
    if not sentence:
        yield []
        return
    for i in range(1, len(sentence) + 1):
        word = sentence[:i]
        if i > 1 and lex.entries.get(word, 0) <= 0:
            continue
        for rest in all_segmentations(sentence[i:], lex):
            yield [word] + rest


def brute_force_cut(sentence: str, lex: Lexicon) -> list[str]:
    """Max-probability segmentation, scored exactly (no rounding, so any two paths of
    equal probability tie whatever their word order); ties prefer longer words from the
    left."""
    best_key = None
    best_seg = None
    for seg in all_segmentations(sentence, lex):
        score = Fraction(1)
        for word in seg:
            score *= word_prob(word, lex)
        key = (score, tuple(len(w) for w in seg))
        if best_key is None or key > best_key:
            best_key = key
            best_seg = seg
    return best_seg


def valid_state_paths(n: int, model: HmmModel):
    successors = {"B": "ME", "M": "ME", "E": "BS", "S": "BS"}

    def extend(path):
        if len(path) == n:
            if path[-1] in "ES":
                yield path
            return
        for nxt in successors[path[-1]]:
            yield from extend(path + nxt)

    for start in model.start_logp:
        yield from extend(start)


def brute_force_viterbi(fragment: str, model: HmmModel) -> list[str]:
    """Exhaustive path search; ties prefer states earlier in B<M<E<S from the right."""
    order = {s: i for i, s in enumerate("BMES")}

    def emit(state, ch):
        return model.emit_logp.get(state, {}).get(ch, model.unseen_emit_logp)

    best_key = None
    best_path = None
    for path in valid_state_paths(len(fragment), model):
        logp = model.start_logp[path[0]] + emit(path[0], fragment[0])
        ok = True
        for t in range(1, len(path)):
            tr = model.trans_logp.get(path[t - 1], {}).get(path[t])
            if tr is None:
                ok = False
                break
            logp = logp + tr + emit(path[t], fragment[t])
        if not ok:
            continue
        tie = tuple(-order[s] for s in reversed(path))
        key = (logp, tie)
        if best_key is None or key > best_key:
            best_key = key
            best_path = path
    tokens = []
    start = 0
    for t, state in enumerate(best_path):
        if state in "ES":
            tokens.append(fragment[start:t + 1])
            start = t + 1
    return tokens


# ---------------------------------------------------------------------------
# Lexicon loading
# ---------------------------------------------------------------------------

def test_build_lexicon_prefix_insertion():
    lex = build_lexicon([("AB", 4), ("ABC", 2), ("A", 2), ("B", 1), ("C", 1)])
    assert lex.entries == {"A": 2, "B": 1, "C": 1, "AB": 4, "ABC": 2}
    assert lex.total == 10


def test_build_lexicon_single_word():
    lex = build_lexicon([("中医", 5)])
    assert lex.entries == {"中": 0, "中医": 5}
    assert lex.total == 5


def test_load_lexicon_fixture_total_is_column_sum(lexicon, data_dir):
    total = 0
    with open(data_dir / "lexicon.txt", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            total += int(line.rsplit(" ", 1)[1])
    assert lexicon.total == total
    assert lexicon.log_total == pytest.approx(math.log(total))


def test_load_lexicon_errors(tmp_path):
    bad_freq = tmp_path / "a.txt"
    bad_freq.write_text("中医 x\n", encoding="utf-8")
    with pytest.raises(LexiconError, match=":1"):
        load_lexicon(bad_freq)
    zero = tmp_path / "b.txt"
    zero.write_text("中医 5\n汤药 0\n", encoding="utf-8")
    with pytest.raises(LexiconError, match=":2"):
        load_lexicon(zero)
    noword = tmp_path / "c.txt"
    noword.write_text(" 5\n", encoding="utf-8")
    with pytest.raises(LexiconError):
        load_lexicon(noword)


# ---------------------------------------------------------------------------
# Max-probability route
# ---------------------------------------------------------------------------

def reference_build_dag(sentence: str, lex: Lexicon) -> dict[int, list[int]]:
    """The two-pass route as it stood before the DAG walk moved into the DP: first the
    end indexes of all dictionary words at each start (plus a self-edge)..."""
    n = len(sentence)
    dag: dict[int, list[int]] = {}
    for i in range(n):
        ends: list[int] = []
        j = i
        while j < n:
            freq = lex.entries.get(sentence[i:j + 1])
            if freq is None:
                break
            if freq > 0:
                ends.append(j)
            j += 1
        if not ends or ends[0] != i:
            ends.insert(0, i)
        dag[i] = ends
    return dag


def reference_word_logp(word: str, lex: Lexicon) -> float:
    freq = lex.entries.get(word, 0)
    if freq > 0:
        return math.log(freq) - lex.log_total
    return -lex.log_total  # unknown single char: log(1/total)


def reference_route(sentence: str, dag: dict[int, list[int]], lex: Lexicon) -> dict[int, int]:
    """...then a right-to-left DP over that DAG, looking each edge's word up again."""
    n = len(sentence)
    score = [0.0] * (n + 1)
    route: dict[int, int] = {}
    for i in range(n - 1, -1, -1):
        top = -math.inf
        for j in dag[i]:  # ascending, so a later tie is a longer word and wins
            s = reference_word_logp(sentence[i:j + 1], lex) + score[j + 1]
            if s >= top - TIE_TOLERANCE:
                best_s, best_j = s, j
                if s > top:
                    top = s
        score[i] = best_s
        route[i] = best_j
    return route


ALPHABET = "风寒暑湿燥火"
words_of = st.text(alphabet=ALPHABET[:4], min_size=1, max_size=4)
lexicon_pairs = st.lists(st.tuples(words_of, st.sampled_from([1, 2, 3, 4, 7, 8, 16])),
                         min_size=1, max_size=12)


@given(lexicon_pairs, st.text(alphabet=ALPHABET, max_size=12),
       st.text(alphabet=ALPHABET, max_size=12))
def test_route_equals_the_two_pass_reference(pairs, left, right):
    # lists, not sets, so the lexicon's insertion order is the same under every hash seed;
    # 燥/火 and "X" are never words, so every sentence holds a character outside it
    lex = build_lexicon(pairs)
    sentence = left + "X" + right
    reference = reference_route(sentence, reference_build_dag(sentence, lex), lex)
    assert max_prob_route(sentence, lex) == [reference[i] for i in range(len(sentence))]


@pytest.fixture(scope="module")
def abc_lex():
    return build_lexicon([("AB", 4), ("ABC", 2), ("A", 2), ("B", 1), ("C", 1)])


def test_route_prefers_whole_word(abc_lex):
    assert max_prob_route("ABC", abc_lex)[0] == 2
    assert brute_force_cut("ABC", abc_lex) == ["ABC"]


def test_route_tie_prefers_longer_word():
    lex = build_lexicon([("AB", 2), ("A", 2), ("B", 2)])
    route = max_prob_route("AB", lex)
    assert route[0] == 1  # [AB] beats [A][B] on score; rule also prefers longer
    assert brute_force_cut("AB", lex) == ["AB"]


def test_route_rounding_tie_prefers_longer_word():
    # 风/风风/火 and 风风/风/火 hold the same words, so their scores are equal; summed in
    # another order they round apart, and the tie must still go to the longer first word
    lex = build_lexicon([("火风", 2), ("风风", 7)])
    assert [t for t, _ in cut("风风风火", lex).tokens] == ["风风", "风", "火"]
    assert brute_force_cut("风风风火", lex) == ["风风", "风", "火"]


def test_route_all_unknown():
    lex = build_lexicon([("中医", 5)])
    assert max_prob_route("XY", lex) == [0, 1]
    assert max_prob_route("XYZ", Lexicon(entries={}, total=1, log_total=0.0)) == [0, 1, 2]


# ---------------------------------------------------------------------------
# Viterbi
# ---------------------------------------------------------------------------

def test_viterbi_single_char_is_single_token(hmm):
    assert viterbi("风", hmm) == ["风"]


def test_viterbi_two_chars_matches_brute_force(hmm):
    for a, b in product("风寒暑湿燥火", repeat=2):
        frag = a + b
        assert viterbi(frag, hmm) == brute_force_viterbi(frag, hmm)


def test_viterbi_matches_brute_force_sampled(hmm):
    rng = random.Random(7)
    alphabet = "风寒暑湿燥火"
    for _ in range(150):
        n = rng.randint(3, 8)
        frag = "".join(rng.choice(alphabet) for _ in range(n))
        assert viterbi(frag, hmm) == brute_force_viterbi(frag, hmm)


def test_viterbi_lossless(hmm):
    frag = "风寒暑湿燥火火燥"
    tokens = viterbi(frag, hmm)
    assert "".join(tokens) == frag
    assert all(tokens)


def test_viterbi_without_a_path_to_a_final_state_gives_one_token_per_character():
    # B->E->B... ends in B on odd lengths, so no path ends in E or S
    model = HmmModel(start_logp={"B": 0.0}, trans_logp={"B": {"E": 0.0}, "E": {"B": 0.0}},
                     emit_logp={}, unseen_emit_logp=-1.0)
    assert viterbi("abc", model) == ["a", "b", "c"]
    assert viterbi("abcd", model) == ["ab", "cd"]


@pytest.mark.parametrize("change, message", [
    ({"trans": None}, "missing key 'trans'"),
    ({"start": {"M": 0.0}}, "disallowed state 'M'"),
    ({"trans": {"B": {"S": 0.0}}}, "disallowed transition B->S"),
], ids=["missing_key", "start_state", "transition"])
def test_load_hmm_rejects_malformed_models(tmp_path, change, message):
    raw = {"start": {"B": 0.0}, "trans": {"B": {"E": 0.0}}, "emit": {}, "unseen": -1.0}
    raw.update(change)
    path = tmp_path / "hmm.json"
    path.write_text(json.dumps({k: v for k, v in raw.items() if v is not None}),
                    encoding="utf-8")
    with pytest.raises(HmmModelError, match=message):
        load_hmm(path)


# ---------------------------------------------------------------------------
# cut() and token_set()
# ---------------------------------------------------------------------------

def test_cut_empty():
    lex = build_lexicon([("中医", 5)])
    assert cut("", lex).tokens == []


def test_cut_ascii_run_is_atomic(abc_lex):
    assert [t for t, _ in cut("ABC", abc_lex).tokens] == ["ABC"]


def test_cut_dictionary_words(lexicon):
    tokens = [t for t, _ in cut("胃脘胀痛、嗳气吞酸", lexicon).tokens]
    assert "胃脘胀痛" in tokens
    assert "嗳气" in tokens
    assert "吞酸" in tokens


def test_cut_hmm_redecodes_unknown_run(hmm):
    lex = build_lexicon([("中医", 50)])
    sentence = "中医风寒中医"  # 风/寒 unknown to this lexicon, handled by the HMM
    result = cut(sentence, lex, hmm)
    texts = [t for t, _ in result.tokens]
    assert texts[0] == "中医" and texts[-1] == "中医"
    assert texts[1:-1] == brute_force_viterbi("风寒", hmm)
    assert "".join(texts) == sentence


def test_cut_spans_are_global(lexicon, hmm):
    sentence = "患者abc主诉，头晕。"
    result = cut(sentence, lexicon, hmm)
    for text, (s, e) in result.tokens:
        assert sentence[s:e] == text


# Lexicon words, characters outside the fixture lexicon (龘, 㐀: unknown to the HMM too;
# 风, 寒, 湿: known only as prefixes), ASCII, whitespace and every SENTENCE_ENDS character.
TILING_PIECES = ["胃脘胀痛", "中医", "药方", "风寒湿", "龘", "㐀", "abc", "XY", "7",
                 " ", "\n", "，", "。", "！", "？", "；"]


@given(st.lists(st.sampled_from(TILING_PIECES), max_size=20).map("".join), st.booleans())
def test_cut_lossless(lexicon, hmm, text, use_hmm):
    # the spans tile the text, as token_chunk's windows, read from token ends, rely on
    pos = 0
    for token, (s, e) in cut(text, lexicon, hmm if use_hmm else None).tokens:
        assert s == pos and e > s and text[s:e] == token
        pos = e
    assert pos == len(text)


# Each pair of neighbours across a CJK range boundary is a lexicon word, so a pair cut as
# one token proves both characters CJK.
CLASS_LEXICON = [("㏿㐀", 3), ("㐀䶿", 3), ("䶿䷀", 3), ("一鿿", 3), ("鿿ꀀ", 3),
                 ("\U00020000一", 3), ("Ａ１", 3), ("中", 3)]


@pytest.mark.parametrize("text, expected", [
    ("㏿㐀", [("㏿", (0, 1)), ("㐀", (1, 2))]),                    # U+33FF, U+3400
    ("㐀䶿", [("㐀䶿", (0, 2))]),                                  # U+3400, U+4DBF
    ("䶿䷀", [("䶿", (0, 1)), ("䷀", (1, 2))]),                    # U+4DBF, U+4DC0
    ("一鿿", [("一鿿", (0, 2))]),                                  # U+4E00, U+9FFF
    ("鿿ꀀ", [("鿿", (0, 1)), ("ꀀ", (1, 2))]),                    # U+9FFF, U+A000
    ("\U00020000一", [("\U00020000", (0, 1)), ("一", (1, 2))]),  # U+20000
    ("Ａ１", [("Ａ", (0, 1)), ("１", (1, 2))]),
    ("aé1", [("a", (0, 1)), ("é", (1, 2)), ("1", (2, 3))]),
    ("x²y", [("x", (0, 1)), ("²", (1, 2)), ("y", (2, 3))]),
    ("7٣8", [("7", (0, 1)), ("٣", (1, 2)), ("8", (2, 3))]),
    ("a_b", [("a", (0, 1)), ("_", (1, 2)), ("b", (2, 3))]),
    ("\tZ9\t", [("\t", (0, 1)), ("Z9", (1, 3)), ("\t", (3, 4))]),
    ("\r\n", [("\r", (0, 1)), ("\n", (1, 2))]),
    ("ab12中x", [("ab12", (0, 4)), ("中", (4, 5)), ("x", (5, 6))]),
])
def test_cut_character_classes(text, expected):
    assert cut(text, build_lexicon(CLASS_LEXICON)).tokens == expected


def is_cjk(ch: str) -> bool:
    return "\u3400" <= ch <= "\u4dbf" or "\u4e00" <= ch <= "\u9fff"


def plain_tokens(text: str) -> list[tuple[str, tuple[int, int]]]:
    """The documented rule outside CJK runs, one character at a time: an ASCII letter or
    digit run is one token, any other character is its own."""
    tokens = []
    for i, ch in enumerate(text):
        if is_cjk(ch):
            continue
        prev = tokens[-1] if tokens else None
        if (ch.isascii() and ch.isalnum() and prev is not None and prev[1][1] == i
                and prev[0][-1].isascii() and prev[0][-1].isalnum()):
            tokens[-1] = (prev[0] + ch, (prev[1][0], i + 1))
        else:
            tokens.append((ch, (i, i + 1)))
    return tokens


@given(st.text(alphabet="中医药方㏿㐀䶿䷀一鿿ꀀ\U00020000aZ09_Ａ１é²٣，。 \t\r\n", max_size=40))
def test_cut_non_cjk_tokens_follow_the_rule(lexicon, hmm, text):
    tokens = cut(text, lexicon, hmm).tokens
    assert all(all(map(is_cjk, t)) for t, _ in tokens if is_cjk(t[0]))
    assert [tok for tok in tokens if not is_cjk(tok[0][0])] == plain_tokens(text)


def test_token_set_drops_punct_and_dupes():
    lex = build_lexicon([("中医", 5)])
    assert token_set("中医，中医", lex) == {"中医"}
    assert token_set("", lex) == set()
    assert token_set("？？ 。", lex) == set()
    assert token_set("a，b a。", lex) == {"a", "b"}


def test_no_cjk_range_character_is_ignorable():
    # token_set keeps every token of a CJK run unchecked on this fact
    chars = [chr(c) for lo, hi in ((0x3400, 0x4DC0), (0x4E00, 0xA000)) for c in range(lo, hi)]
    assert not any(map(segment._is_ignorable, chars))


def cut_token_set(text: str, lex: Lexicon, hmm: HmmModel | None) -> set[str]:
    """The documented token set, from cut's tokens."""
    return {t for t, _ in cut(text, lex, hmm).tokens if not segment._is_ignorable(t)}


@given(st.text(alphabet="中医药方㏿㐀䶿䷀一鿿ꀀ\U00020000aZ09_Ａ１é²٣，。 \t\r\n", max_size=40),
       st.booleans())
def test_token_set_is_the_set_of_cut_tokens(lexicon, hmm, text, use_hmm):
    model = hmm if use_hmm else None
    want = cut_token_set(text, cold(lexicon), model)
    assert token_set(text, cold(lexicon), model) == want
    assert token_set(text, lexicon, model) == want  # warm: the fixture is shared


# ---------------------------------------------------------------------------
# The run memo on Lexicon: each distinct CJK run is cut once per lexicon and HMM
# ---------------------------------------------------------------------------

def cold(lex: Lexicon) -> Lexicon:
    """The same lexicon in a new object, so with an empty run memo."""
    return Lexicon(entries=lex.entries, total=lex.total, log_total=lex.log_total)


# Words of the fixture lexicon, characters it lacks (龘, 㐀, 鿿: unknown to the HMM
# too; 风, 寒, 湿: known only as prefixes), ASCII, other characters and punctuation.
PIECES = ["胃脘胀痛", "嗳气吞酸", "舌红", "苔黄", "中医", "风寒湿", "龘", "㐀鿿", "风",
          "abc", "12", "é", "，", "。", " ", "\n"]


@given(st.lists(st.sampled_from(PIECES), max_size=14).map("".join), st.booleans())
def test_cut_is_its_runs_cut_alone_and_shifted(lexicon, hmm, text, use_hmm):
    model = hmm if use_hmm else None
    expected = []
    start = 0
    for _, group in groupby(text, key=is_cjk):  # maximal CJK and non-CJK stretches
        piece = "".join(group)
        expected += [(t, (start + s, start + e))
                     for t, (s, e) in cut(piece, cold(lexicon), model).tokens]
        start += len(piece)
    assert cut(text, cold(lexicon), model).tokens == expected
    assert cut(text, lexicon, model).tokens == expected  # warm: the fixture is shared
    assert cut(text + "，" + text, lexicon, model).tokens == expected + [
        ("，", (len(text), len(text) + 1))] + [
        (t, (len(text) + 1 + s, len(text) + 1 + e)) for t, (s, e) in expected]


def test_one_lexicon_gives_each_hmm_its_own_tokens(hmm):
    lex = build_lexicon([("中医", 50)])
    text = "中医风寒湿中医"  # 风寒湿 is unknown to this lexicon: the HMM re-decodes it
    one_word = HmmModel(start_logp={"B": 0.0}, emit_logp={},
                        trans_logp={"B": {"M": 0.0, "E": 0.0}, "M": {"M": 0.0, "E": 0.0}})
    models = [None, hmm, one_word]
    want = [cut(text, cold(lex), model).tokens for model in models]
    assert want[0][1:4] == [("风", (2, 3)), ("寒", (3, 4)), ("湿", (4, 5))]
    assert want[2][1] == ("风寒湿", (2, 5))
    assert [t for t, _ in want[1][1:-1]] == brute_force_viterbi("风寒湿", hmm)
    for _ in range(2):
        for model, tokens in zip(models, want):
            assert cut(text, lex, model).tokens == tokens
    # models made and dropped in turn may share an id; each still gets its own tokens
    for i in range(6):
        model = HmmModel(**{k: getattr(models[1 + i % 2], k)
                            for k in ("start_logp", "trans_logp", "emit_logp")})
        assert cut(text, lex, model).tokens == want[1 + i % 2]
        del model


def test_run_memo_never_exceeds_its_bound(lexicon):
    lex = cold(lexicon)
    chars = [chr(0x4E00 + i) for i in range(80)]
    runs = [a + b for a in chars for b in chars]  # 6,400 distinct two-character runs
    for i in range(0, len(runs), 500):
        text = "，".join(runs[i:i + 500])
        assert cut(text, lex).tokens == cut(text, cold(lexicon)).tokens
        assert 0 < len(lex._runs) <= segment._RUN_MEMO_LIMIT
    lex = cold(lexicon)
    for i in range(0, len(runs), 500):
        text = "，".join(runs[i:i + 500])
        assert token_set(text, lex) == cut_token_set(text, cold(lexicon), None)
        assert 0 < len(lex._runs) <= segment._RUN_MEMO_LIMIT


@pytest.mark.parametrize("cut_first", [True, False])
def test_cut_and_token_set_cut_each_run_once(monkeypatch, lexicon, hmm, cut_first):
    cut_runs: list[str] = []
    real_cut_cjk = segment._cut_cjk

    def counting_cut_cjk(block, lex, model):
        cut_runs.append(block)
        return real_cut_cjk(block, lex, model)

    monkeypatch.setattr(segment, "_cut_cjk", counting_cut_cjk)
    lex = cold(lexicon)
    text = "胃脘胀痛龘风寒，舌红abc胃脘胀痛龘风寒。"
    steps = [lambda: cut(text, lex, hmm), lambda: token_set(text, lex, hmm)]
    for step in (steps if cut_first else steps[::-1]) * 2:
        step()
    assert sorted(cut_runs) == ["胃脘胀痛龘风寒", "舌红"]
    assert token_set(text, lex, hmm) == cut_token_set(text, lex, hmm)


@pytest.mark.parametrize("text", ["胃脘胀痛龘风寒", "胃脘胀痛龘风寒，胃脘胀痛龘风寒"])
def test_mutating_returned_tokens_leaves_later_cuts_alone(lexicon, hmm, text):
    lex = cold(lexicon)
    want = cut(text, cold(lexicon), hmm).tokens
    first = cut(text, lex, hmm)
    first.tokens[0] = ("x", (0, 1))
    first.tokens.append(("y", (99, 100)))
    del first.tokens[1:3]
    assert cut(text, lex, hmm).tokens == want


# ---------------------------------------------------------------------------
# DP oracle equivalence on a toy lexicon (small version of the acceptance run)
# ---------------------------------------------------------------------------

TOY_ALPHABET = "风寒湿火"


def toy_lexicon() -> Lexicon:
    rng = random.Random(11)
    words = set()
    while len(words) < 30:
        n = rng.choice([1, 1, 2, 2, 2, 3])
        words.add("".join(rng.choice(TOY_ALPHABET) for _ in range(n)))
    return build_lexicon([(w, rng.randint(1, 40)) for w in sorted(words)])


def test_cut_matches_brute_force_short():
    lex = toy_lexicon()
    for n in range(1, 5):
        for chars in product(TOY_ALPHABET, repeat=n):
            sentence = "".join(chars)
            got = [t for t, _ in cut(sentence, lex).tokens]
            assert got == brute_force_cut(sentence, lex), sentence


def test_hmm_load_rejects_bad_transition(tmp_path):
    import json as _json
    model = {"start": {"B": -0.5}, "trans": {"B": {"S": -0.5}}, "emit": {}, "unseen": -16.0}
    path = tmp_path / "m.json"
    path.write_text(_json.dumps(model), encoding="utf-8")
    with pytest.raises(Exception, match="B->S"):
        load_hmm(path)
