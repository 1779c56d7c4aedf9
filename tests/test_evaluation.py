import random

import pytest

from tripleforge.core import TripleSet
from dataclasses import asdict

from tripleforge.evaluation import (
    CostReport,
    EvalReport,
    cost_report,
    micro_f1,
)

from conftest import make_triple


def spanned(pred="Kill", st="Per", s="Booth", ot="Per", o="Lincoln",
            s_span=(0, 5), o_span=(11, 18)):
    return make_triple(pred=pred, st=st, s=s, ot=ot, o=o, s_span=s_span, o_span=o_span)


def one_sample_counts(preds, golds):
    """(tp, fp, fn) of micro_f1 over a single sample."""
    report = micro_f1({"s1": TripleSet.of(preds)}, {"s1": TripleSet.of(golds)})
    return report.tp, report.fp, report.fn


MATCH, MISS = (1, 0, 0), (0, 1, 1)


class TestStrictMatch:
    def test_identical_with_spans(self):
        assert one_sample_counts([spanned()], [spanned()]) == MATCH

    def test_missing_pred_span_fails(self):
        assert one_sample_counts([make_triple()], [spanned()]) == MISS

    def test_different_predicate_fails(self):
        assert one_sample_counts([spanned(pred="Live_In")], [spanned()]) == MISS

    def test_different_entity_type_fails(self):
        assert one_sample_counts([spanned(st="Org")], [spanned()]) == MISS

    def test_different_span_fails(self):
        assert one_sample_counts([spanned(s_span=(1, 6))], [spanned()]) == MISS

    def test_surface_differences_ignored_when_spans_match(self):
        # span equality implies the surfaces select the same text
        assert one_sample_counts([spanned(s="BOOTH")], [spanned()]) == MATCH


GOLD_A = spanned()
GOLD_B = spanned(pred="Live_In", o="Washington", o_span=(25, 35))
PRED_C = spanned(pred="Work_For", o="ACME", o_span=(40, 44))


class TestMicroF1:
    def test_worked_half_example(self):
        report = micro_f1(
            {"s1": TripleSet.of([GOLD_A, PRED_C])},
            {"s1": TripleSet.of([GOLD_A, GOLD_B])},
        )
        assert report.tp == 1 and report.fp == 1 and report.fn == 1
        assert report.precision == report.recall == report.f1 == 0.5

    def test_perfect_predictions(self, pool_dataset):
        gold = pool_dataset.gold_triples()
        report = micro_f1(gold, gold)
        assert report.f1 == 1.0 and report.fp == 0 and report.fn == 0

    def test_empty_predictions(self):
        report = micro_f1({}, {"s1": TripleSet.of([GOLD_A])})
        assert report.precision == 0.0 and report.recall == 0.0 and report.f1 == 0.0
        assert report.fn == 1

    def test_duplicate_correct_prediction_counts_fp(self):
        # same spans and types, different surface casing: both strictly match
        # the single gold triple but only one may consume it
        dup = spanned(s="BOOTH")
        preds = [spanned(), dup]
        assert one_sample_counts(preds, [GOLD_A]) == (1, 1, 0)

    def test_unknown_sample_id_rejected(self):
        with pytest.raises(ValueError, match="unknown sample ids"):
            micro_f1({"mystery": TripleSet()}, {"s1": TripleSet()})

    def test_sample_order_invariant(self):
        preds = {"s1": TripleSet.of([GOLD_A]), "s2": TripleSet.of([PRED_C])}
        gold = {"s1": TripleSet.of([GOLD_A]), "s2": TripleSet.of([GOLD_B])}
        a = micro_f1(preds, gold)
        b = micro_f1(dict(reversed(list(preds.items()))),
                     dict(reversed(list(gold.items()))))
        assert asdict(a) == asdict(b)

    def test_triple_order_invariant_for_counts(self):
        rng = random.Random(0)
        preds = [GOLD_A, GOLD_B, PRED_C]
        gold = [GOLD_A, GOLD_B]
        base = one_sample_counts(preds, gold)
        for _ in range(10):
            p2 = preds[:]
            g2 = gold[:]
            rng.shuffle(p2)
            rng.shuffle(g2)
            assert one_sample_counts(p2, g2) == base

    def test_unalignable_entities_counted_and_scored_fp(self):
        pred = make_triple()  # no spans recovered
        report = micro_f1({"s1": TripleSet.of([pred])}, {"s1": TripleSet.of([GOLD_A])})
        assert report.unalignable_entities == 2
        assert report.fp == 1 and report.tp == 0

    def test_per_relation_breakdown(self):
        report = micro_f1(
            {"s1": TripleSet.of([GOLD_A, PRED_C])},
            {"s1": TripleSet.of([GOLD_A, GOLD_B])},
        )
        assert report.per_relation["Kill"].tp == 1
        assert report.per_relation["Work_For"].fp == 1
        assert report.per_relation["Live_In"].fn == 1

    def test_parse_skips_carried_through(self):
        report = micro_f1({}, {"s1": TripleSet()}, parse_skipped_rows=4)
        assert report.parse_skipped_rows == 4

    def test_report_table_text(self):
        report = micro_f1({"s1": TripleSet.of([GOLD_A])}, {"s1": TripleSet.of([GOLD_A])})
        text = report.to_table_text()
        assert "precision 1.0000" in text and "Kill" in text


class TestCostReport:
    def test_min_max_of_lengths(self):
        report = cost_report(["a" * 30, "b" * 460])
        assert report.min_chars == 30 and report.max_chars == 460
        assert report.total_chars == 490

    def test_all_empty_outputs(self):
        report = cost_report(["", "", ""])
        assert report.total_chars == 0 and report.min_chars == 0 and report.max_chars == 0

    def test_average(self):
        assert cost_report(["a" * 10, "b" * 20, "c" * 30]).avg_chars == 20.0

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            cost_report([])

    def test_counts_code_points(self):
        report = cost_report(["héllo"])
        assert (report.total_chars, report.avg_chars, report.min_chars,
                report.max_chars) == (5, 5.0, 5, 5)

    def test_invariant_enforced(self):
        with pytest.raises(ValueError, match="min <= avg <= max"):
            CostReport(total_chars=10, avg_chars=99.0, min_chars=1, max_chars=9, count=2)

    def test_table_format_fixture(self):
        # report-format fixture shaped like published cost tables; the
        # numbers are layout inputs, not measurements
        report = CostReport(total_chars=24976, avg_chars=86.72, min_chars=30,
                            max_chars=460, count=288)
        text = report.to_table_text()
        lines = text.splitlines()
        assert lines[0].split() == ["#", "Total", "#", "Avg.", "#", "Min.", "#", "Max."]
        assert lines[1].split() == ["24,976", "86.72", "30", "460"]

    def test_json_round_trip_fields(self):
        report = cost_report(["abc", "de"])
        assert asdict(report) == {
            "total_chars": 5, "avg_chars": 2.5, "min_chars": 2,
            "max_chars": 3, "count": 2,
        }
