"""tripleforge: budget-aware demonstration selection and tabular prompting
for LLM relational triple extraction; import every other name from its module."""

from .core import load_dataset
from .selection import select_coverage
from .similarity import HashingEmbedder, pool_distances

__version__ = "0.1.0"
