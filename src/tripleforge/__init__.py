"""tripleforge: budget-aware demonstration selection and tabular prompting
for LLM relational triple extraction."""

from .core import (
    AnnotationOracle,
    Dataset,
    GoldAnnotation,
    Sample,
    Schema,
    Triple,
    TripleSet,
    align_entity_offsets,
    load_dataset,
    verbalize_triple,
)
from .evaluation import CostReport, EvalReport, cost_report, micro_f1
from .prompting import (
    Demonstration,
    ParsedExtraction,
    PromptFormat,
    parse_output,
    render_few_shot,
    render_zero_shot,
    serialize_triples,
)
from .retriever import (
    RetrieverModel,
    TrainConfig,
    compute_P,
    load_checkpoint,
    save_checkpoint,
)
from .selection import (
    SelectionResult,
    order_demonstrations,
    select_balance,
    select_coverage,
    select_random,
    select_top_k,
)
from .similarity import (
    HashingEmbedder,
    PairwiseDistanceSet,
    PoolDistanceMatrix,
    pool_distances,
)

__version__ = "0.1.0"
