"""Document-level sentiment classification with learned per-sentence
importance gates: a from-scratch autodiff engine, a parameter-shared
transformer sentence encoder, a gated GRU document encoder with
dot-product attention, and the training/analysis tooling around them.
"""
