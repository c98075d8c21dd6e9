"""The model families, keyed by the ``family`` name a run's ``arch`` selects."""

from .rnn import QaRnnModel
from .transformer import QaTransformerModel

FAMILIES = {cls.family: cls for cls in (QaRnnModel, QaTransformerModel)}
