"""Self-contained HTML heatmap of per-sentence importance scores.

Each sentence is rendered on a background whose blue intensity is
linear in its min-max-normalized gate score: the highest-scoring
sentence is full blue, the lowest is white, and an all-equal profile
renders entirely white.  Raw scores are printed next to every sentence
and the page embeds its CSS and an SVG legend (no external resources).
"""

from __future__ import annotations

import html

from .analysis import minmax_normalize
from .errors import UsageError

_PAGE = """<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>Sentence importance</title>
<style>
body {{ font-family: Georgia, serif; max-width: 52em; margin: 2em auto; }}
.sentence {{ padding: 0.25em 0.4em; margin: 0.15em 0; border-radius: 3px; }}
.score {{ font-family: monospace; font-size: 0.8em; color: #333; margin-right: 0.6em; }}
.meta {{ color: #555; font-size: 0.9em; margin-bottom: 1em; }}
</style>
</head>
<body>
<h2>Sentence importance</h2>
<div class="meta">{meta}</div>
<div class="doc">
{rows}
</div>
{legend}
</body>
</html>
"""

_LEGEND = """<svg width="320" height="46" role="img" aria-label="color scale">
<defs>
<linearGradient id="blue-scale" x1="0" y1="0" x2="1" y2="0">
<stop offset="0%" stop-color="rgb(255,255,255)"/>
<stop offset="100%" stop-color="rgb(0,0,255)"/>
</linearGradient>
</defs>
<rect x="10" y="8" width="300" height="16" fill="url(#blue-scale)" stroke="#999"/>
<text x="10" y="40" font-size="11">low importance</text>
<text x="310" y="40" font-size="11" text-anchor="end">high importance</text>
</svg>"""


def score_color(normalized):
    """White at 0, pure blue at 1, linear in between."""
    level = int(round(255 * (1.0 - normalized)))
    return f"rgb({level},{level},255)"


def render_heatmap(pred, texts):
    """Render a Prediction to an HTML page, `texts[i]` beside gate score i."""
    if not pred.gate_scores:
        raise UsageError("cannot render a prediction without gate scores")
    if len(texts) != len(pred.gate_scores):
        raise UsageError(
            f"{len(texts)} sentence texts for {len(pred.gate_scores)} gate scores"
        )
    normalized = minmax_normalize(pred.gate_scores)
    rows = []
    for text, score, norm in zip(texts, pred.gate_scores, normalized):
        rows.append(
            f'<div class="sentence" style="background-color: {score_color(float(norm))}" '
            f'data-score="{score:.6f}">'
            f'<span class="score">g={score:.4f}</span>{html.escape(text)}</div>'
        )
    meta_bits = [
        f"document {html.escape(str(pred.id))}",
        f"predicted class {pred.predicted}",
    ]
    if pred.gold is not None:
        meta_bits.append(f"gold class {pred.gold}")
    if not pred.gate_enabled:
        meta_bits.append("gate disabled: placeholder scores")
    return _PAGE.format(meta=" &middot; ".join(meta_bits), rows="\n".join(rows), legend=_LEGEND)
