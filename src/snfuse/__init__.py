"""snfuse: desk-scale stock forecasting from prices and daily news embeddings.

Name-guided attentive pooling over each day's news, bidirectional
news-price fusion with a per-day graph convolution, and patch
reprogramming onto a small frozen surrogate transformer. Everything runs
in float64 on a hand-rolled reverse-mode tape so gradients can be checked
against central finite differences end to end. Callers import from the
modules (snfuse.data, .model, .training, .cli), not from the package.
"""

__version__ = "0.1.0"
