"""The frozen value records: one small base keeps the behaviour callers and
memo keys rely on (construction, defaults, equality, hash, immutability)."""
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import clustercert as cc
from clustercert import bounds, verify
from clustercert.space import Record


class Pair(Record):
    a: int
    b: str = "x"


class OtherPair(Record):
    a: int
    b: str = "x"


class Triple(Pair):
    c: int = 0


class TestConstruction:
    def test_fields_follow_the_annotations(self):
        assert Pair._fields == ("a", "b")
        assert cc.CheckResult._fields == (
            "prop_id", "passed", "lhs", "rhs", "note", "witness"
        )

    @pytest.mark.parametrize(
        "args, kwargs",
        [((1, "y"), {}), ((1,), {"b": "y"}), ((), {"b": "y", "a": 1})],
        ids=["positional", "mixed", "keyword"],
    )
    def test_position_and_keyword(self, args, kwargs):
        assert Pair(*args, **kwargs) == Pair(1, "y")

    @pytest.mark.parametrize(
        "cls, args, kwargs, message",
        [
            (Pair, (), {}, "missing field 'a'"),
            (Pair, (), {"b": "y"}, "missing field 'a'"),
            (Pair, (1,), {"c": 2}, "unknown field 'c'"),
            (Pair, (1,), {"a": 2}, "repeated or unknown field 'a'"),
            (Pair, (1, "y", 3), {}, "takes 2 fields, got 3"),
            (Triple, (1,), {"a": 2}, "repeated or unknown field 'a'"),
            (Triple, (1, "y"), {"b": "z"}, "repeated or unknown field 'b'"),
            (Triple, (), {"b": "y", "d": 1}, "unknown field 'd'"),
            (Triple, (1,), {"d": 1}, "unknown field 'd'"),
        ],
        ids=[
            "missing", "missing-with-keyword", "unknown", "repeated", "too-many",
            "repeated-with-default", "repeated-second", "unknown-and-missing", "unknown-with-defaults",
        ],
    )
    def test_bad_fields_raise_type_error(self, cls, args, kwargs, message):
        with pytest.raises(TypeError, match=message):
            cls(*args, **kwargs)

    @pytest.mark.parametrize("cls, required", [(Triple, 1), (verify.CheckResult, 4)])
    @given(data=st.data())
    def test_any_split_into_position_and_keyword_builds_one_record(self, cls, required, data):
        count = data.draw(st.integers(required, len(cls._fields)))
        values = data.draw(st.lists(st.integers(), min_size=count, max_size=count))
        split = data.draw(st.integers(0, count))
        keywords = data.draw(st.permutations(list(zip(cls._fields[split:], values[split:]))))
        assert cls(*values[:split], **dict(keywords)) == cls(*values)

    def test_well_formed_constructions_skip_the_check(self, monkeypatch):
        # Only a faulty call needs the field-by-field check; a verify run makes none.
        calls = []
        check = Record._check
        monkeypatch.setattr(Record, "_check", lambda self, args, kwargs: calls.append(self) or check(self, args, kwargs))
        report = verify.run_suite(verify.SuiteConfig(seed=0, trials=60, max_n=14))
        assert report.failure_count == 0 and calls == []
        with pytest.raises(TypeError):
            Pair(1, a=2)
        assert len(calls) == 1

    def test_subclass_extends_the_fields(self):
        assert Triple._fields == ("a", "b", "c")
        assert Triple(1, c=2) == Triple(a=1, b="x", c=2) != Pair(1)

    def test_defaults_apply(self):
        assert Pair(1).b == "x"
        config = verify.SuiteConfig()
        assert (config.seed, config.trials, config.max_n, config.k_values) == (0, 200, 10, (1, 2, 3))
        assert config.node_budget is None
        result = verify.CheckResult("P1", True, 0, 0)
        assert result.note == "" and result.witness is None and result.applicable

    def test_post_init_normalises(self):
        assert verify.SuiteConfig(k_values=[2]).k_values == (2,)


class TestValueSemantics:
    def test_scale_params_is_a_memo_key(self):
        text, exact = cc.ScaleParams("1/2", 2), cc.ScaleParams(Fraction(1, 2), 2)
        assert text == exact and hash(text) == hash(exact)
        assert {text: 1}[exact] == 1
        assert cc.ScaleParams(1, 2) != cc.ScaleParams(1, 3)

    def test_equal_values_of_different_types_are_unequal(self):
        assert Pair(1) != OtherPair(1)
        assert cc.ClusterStructure(()) != cc.StructureValidation(())
        assert Pair(1).__eq__(OtherPair(1)) is NotImplemented

    def test_hash_is_the_hash_of_the_field_values(self):
        assert hash(Pair(1, "y")) == hash((1, "y"))

    def test_repr_names_every_field(self):
        assert repr(Pair(1)) == "Pair(a=1, b='x')"
        assert repr(cc.ScaleParams(1, 2)) == "ScaleParams(r=Fraction(1, 1), k=2)"

    def test_assignment_and_deletion_raise(self):
        params = cc.ScaleParams(1, 2)
        with pytest.raises(AttributeError):
            params.k = 3
        with pytest.raises(AttributeError):
            params.extra = 3
        with pytest.raises(AttributeError):
            del params.k
        assert params.k == 2

    def test_pickle_round_trip(self):
        result = verify.CheckResult("P2", None, None, None, note="n/a")
        assert pickle.loads(pickle.dumps(result)) == result


class TestCachedParts:
    def test_bound_value_is_computed_once(self, monkeypatch):
        calls = []
        sqrt = bounds._sqrt
        monkeypatch.setattr(bounds, "_sqrt", lambda q, ctx: calls.append(q) or sqrt(q, ctx))
        inputs = cc.BoundInputs(Fraction(1), Fraction(0), Fraction(1, 36), 1)
        ev = cc.psi_bound(inputs)
        first = ev.value
        assert ev.value == first and len(calls) == 1
        assert vars(ev)["value"] == first

    def test_cached_parts_stay_out_of_equality(self, s3):
        params = cc.ScaleParams(1, 1)
        cert = bounds.BoundCertificate(s3, params, 14, None)
        fresh = bounds.BoundCertificate(s3, params, 14, None)
        assert cert.observed == fresh.observed
        assert "observed" in vars(cert) and "observed" in vars(fresh)
        assert cert == bounds.BoundCertificate(s3, params, 14, None)
        assert hash(cert) == hash(bounds.BoundCertificate(s3, params, 14, None))


class TestReports:
    def test_unknown_format_is_refused(self):
        with pytest.raises(ValueError, match="unknown format 'xml'"):
            cc.write_report({"a": 1}, fmt="xml")

    @pytest.mark.parametrize("obj, text", [([], " = []\n"), ({"a": [], "b": [1, 2]}, "a = []\nb = 1 2\n")])
    def test_empty_lists_render_as_brackets(self, obj, text):
        assert cc.render_text(obj) == text
