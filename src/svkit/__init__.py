"""svkit: speaker verification with stacked-utterance cube models.

Pipeline: WAV audio -> voice activity detection -> 0.8 s slices -> 80x40 log
mel-energy maps -> speaker cubes -> trained network -> unit-norm speaker
models -> cosine-scored one-vs-all trials -> ROC / EER / AUC reports.
"""

__version__ = "0.1.0"
