"""Adaptation config language: golden corpus, AST shape, round trips."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zjkit.architect import METHODS
from zjkit.dsl import AdaptSpec, Hook, parse_config, serialize
from zjkit.errors import ParseError

LISTING = "(LoRA.adapt):->(blocks[0:12].attn.qkv){inout1}"

# Golden corpus: 10 valid strings, and invalid ones with expected offsets.
VALID = [
    LISTING,
    "(BitFit.adapt):",
    "(LinearProbe.adapt):",
    "(PartialK.adapt|k=2):",
    "(Adapter.adapt|dim=16):->(blocks[*]){in}",
    "(Prefix.adapt|tokens=4):->(blocks[0]){in}",
    "(SSF.adapt):->(head){out}",
    "(lora.adapt|r=8,alpha=16):->(layers[0]){inout}",
    "(LoRA.adapt):->(blocks[0].attn.qkv){in0}->(blocks[1].attn.qkv){in0}",
    "(LoRA.adapt|r=2):->(blocks[0:1].mlp.fc1){out}",
]

INVALID = [
    ("(LoRA.adapt)->(x){in}", 12),        # missing ':' after declaration
    ("(Foo.adapt):", 1),                  # unknown method name
    ("(LoRA.adapt):", 13),                # injection method without hooks
    ("(LoRA.adapt):->(x){zz}", 19),       # bad mode
    ("(LoRA.adapt):->(x){in", 21),        # unclosed hook braces
    ("(LoRA.)", 6),                       # missing action name
    ("LoRA.adapt:", 0),                   # missing opening parenthesis
    ("(LoRA.adapt|r=0):->(x){in}", 0),    # r out of range (reported at decl)
    ("(LoRA.adapt|r):->(x){in}", 13),     # key without '='
    ("(LoRA.adapt):->(x){in}extra", 22),  # trailing garbage
    ("(LoRA.adapt|rank=8):->(layers[0]){inout}", 12),  # key the record does not list
    ("(BitFit.adapt|r=1):", 14),          # a method with no hyperparameters
    ("(LoRA.adapt|r=4,r=8):->(x){in}", 16),  # repeated key
    ("(LoRA.adapt|r=2.5):->(x){in}", 0),  # count that is not an integer
    ("(LoRA.adapt|r=1e400):->(x){in}", 0),  # count that overflows to inf
    ("(PartialK.adapt|k=1e400):", 0),     # the same for partial-k
    ("(LoRA.adapt|alpha=1e400):->(x){in}", 12),  # a value that overflows to inf
]


def test_listing_parses_to_documented_ast():
    spec = parse_config(LISTING)
    assert spec.method == "lora"
    assert spec.action == "adapt"
    assert spec.hyper == {}
    assert spec.hooks == [Hook("blocks[0:12].attn.qkv", "inout", 1)]
    # defaults merged on demand, not stored in the AST
    assert spec.hyperparams() == {"r": 4.0, "alpha": 4.0}


def test_bitfit_empty_chain():
    spec = parse_config("(BitFit.adapt):")
    assert spec.method == "bitfit"
    assert spec.hooks == []


def test_missing_colon_offset():
    with pytest.raises(ParseError) as exc:
        parse_config("(LoRA.adapt)->(x){in}")
    assert exc.value.offset == 12


@pytest.mark.parametrize("text", VALID)
def test_golden_valid(text):
    spec = parse_config(text)
    assert isinstance(spec, AdaptSpec)


@pytest.mark.parametrize("text,offset", INVALID)
def test_golden_invalid_offsets(text, offset):
    with pytest.raises(ParseError) as exc:
        parse_config(text)
    assert exc.value.offset == offset, text
    assert exc.value.expected  # non-empty expected-token set


def test_hyperparameters_parsed():
    spec = parse_config("(LoRA.adapt|r=8,alpha=16):->(head){out}")
    assert spec.hyper == {"r": 8.0, "alpha": 16.0}
    assert spec.hyperparams()["r"] == 8.0


def test_case_insensitive_method_names():
    assert parse_config("(lora.adapt):->(head){in}").method == "lora"
    assert parse_config("(LORA.adapt):->(head){in}").method == "lora"
    assert parse_config("(linear_probe.adapt):").method == "linear_probe"


def test_multiple_hooks_in_order():
    spec = parse_config(VALID[8])
    assert [h.pattern for h in spec.hooks] == \
        ["blocks[0].attn.qkv", "blocks[1].attn.qkv"]
    assert [h.instance for h in spec.hooks] == [0, 0]


@pytest.mark.parametrize("text", VALID)
def test_parse_serialize_fixed_point(text):
    spec = parse_config(text)
    canon = serialize(spec)
    assert parse_config(canon) == spec
    # canonical form is itself a fixed point
    assert serialize(parse_config(canon)) == canon


_method = st.sampled_from(sorted(METHODS))
_pattern = st.sampled_from(
    ["blocks[0].attn.qkv", "blocks[0:12].attn.qkv", "layers[*]", "head",
     "blocks[3].mlp.fc1"])
_mode = st.sampled_from(["in", "out", "inout"])
_instance = st.one_of(st.none(), st.integers(0, 9))


@settings(deadline=None, max_examples=50)
@given(_method, _pattern, _mode, _instance,
       st.integers(1, 64), st.booleans())
def test_round_trip_property(method, pattern, mode, instance, num, with_hyper):
    record = METHODS[method]
    decl = f"({record.name}.adapt"
    if with_hyper and record.count:
        decl += f"|{record.count[0]}={num}"
    inst = "" if instance is None else str(instance)
    text = f"{decl}):->({pattern}){{{mode}{inst}}}"
    spec = parse_config(text)
    assert parse_config(serialize(spec)) == spec
