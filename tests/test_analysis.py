import json
from dataclasses import asdict

import numpy as np
import pytest

from gatedoc.analysis import error_histogram, minmax_normalize, stddev_report
from gatedoc.cli import _write_json
from gatedoc.errors import UsageError
from gatedoc.heatmap import render_heatmap
from gatedoc.model import Prediction


class TestMinmaxNormalize:
    @pytest.mark.parametrize("scores", [[0.3, 0.3, 0.3], [0.7]])
    def test_all_equal_and_single_score_map_to_zeros(self, scores):
        np.testing.assert_array_equal(minmax_normalize(scores), np.zeros(len(scores)))

    def test_spans_unit_interval(self):
        np.testing.assert_allclose(minmax_normalize([0.2, 0.6, 0.4]), [0.0, 1.0, 0.5])


def _profile(doc_id="doc-1"):
    return Prediction(
        id=doc_id,
        probs=[0.2, 0.7, 0.1],
        predicted=1,
        gold=0,
        gate_scores=[0.25, 0.75],
        gate_enabled=True,
    )


class TestRenderHeatmap:
    def test_escapes_sentence_text_and_doc_id(self):
        page = render_heatmap(
            _profile(doc_id="<script>id"), ["<script>alert(1)</script>", "fine & dandy"]
        )
        assert "<script>" not in page
        assert "&lt;script&gt;alert(1)&lt;/script&gt;" in page
        assert "document &lt;script&gt;id" in page
        assert "fine &amp; dandy" in page

    def test_lowest_score_white_highest_blue(self):
        page = render_heatmap(_profile(), ["low", "high"])
        assert "rgb(255,255,255)\" data-score=\"0.250000\"" in page
        assert "rgb(0,0,255)\" data-score=\"0.750000\"" in page

    @pytest.mark.parametrize("texts", [[], ["only one"]])
    def test_refuses_profile_without_texts(self, texts):
        with pytest.raises(UsageError, match="sentence texts"):
            render_heatmap(_profile(), texts)


def _pred(predicted, gold, gate_scores=(0.5,), gate_enabled=True):
    return Prediction(
        id="d", probs=[], predicted=predicted, gold=gold,
        gate_scores=list(gate_scores), gate_enabled=gate_enabled,
    )


class TestErrorHistogram:
    def test_counts_and_cumulative_fractions(self, tmp_path):
        # ten_scale: wrong by 9 (x1), 1 (x3), 2 (x1) and 4 (x1); two correct
        preds = [
            _pred(9, 0), _pred(3, 4), _pred(5, 4), _pred(0, 1), _pred(2, 4),
            _pred(7, 3), _pred(6, 6), _pred(0, 0),
        ]
        hist = error_histogram(preds)
        assert hist.counts == {1: 3, 2: 1, 4: 1, 9: 1}
        assert hist.n_wrong == 6
        assert hist.cumulative_at_1 == pytest.approx(3 / 6)
        assert hist.cumulative_at_2 == pytest.approx(4 / 6)
        # as `gatedoc analyze` writes it: string keys in ascending order
        path = tmp_path / "hist.json"
        _write_json(asdict(hist), path)
        counts = json.loads(path.read_text(encoding="utf-8"))["counts"]
        assert counts == {"1": 3, "2": 1, "4": 1, "9": 1}
        assert list(counts) == ["1", "2", "4", "9"]

    def test_no_wrong_predictions(self):
        hist = error_histogram([_pred(1, 1), _pred(2, 2)])
        assert (hist.counts, hist.n_wrong) == ({}, 0)
        assert hist.cumulative_at_1 is None and hist.cumulative_at_2 is None

    def test_unlabeled_prediction_is_rejected(self):
        with pytest.raises(UsageError):
            error_histogram([_pred(1, None)])


class TestStddevReport:
    def test_sorted_population_stddevs_of_normalized_scores(self):
        preds = [
            _pred(0, 0, gate_scores=[0.1, 0.9]),  # normalized [0, 1]: stddev 0.5
            _pred(0, 0, gate_scores=[0.4, 0.4, 0.4]),  # all equal: stddev 0
            _pred(0, 0, gate_scores=[0.2, 0.3, 0.4, 0.5]),  # [0, 1/3, 2/3, 1]
        ]
        report = stddev_report(preds)
        assert report.stddevs == pytest.approx([0.0, np.std([0, 1 / 3, 2 / 3, 1]), 0.5])
        assert report.fraction_over_0_2 == pytest.approx(2 / 3)
        assert report.n_documents == 3

    def test_refuses_empty_and_gate_disabled_predictions(self):
        with pytest.raises(UsageError, match="non-empty"):
            stddev_report([])
        with pytest.raises(UsageError, match="gate enabled"):
            stddev_report([_pred(0, 0), _pred(0, 0, gate_enabled=False)])
