"""Manufacturing service capability prediction on knowledge graphs.

Pipeline: build or load a manufacturer-service graph, mask a target
service into a labeled node-classification task, optionally rebalance
classes with synthetic edge/node generation, optionally aggregate
neighbor-name features (paragraph vectors + t-SNE), train a GraphSAGE
or GCN classifier, and evaluate with AUC-ROC / AUC-PR.
"""

from .errors import CapgraphError, DataError, NumericError
from .graph import (
    ClassStats,
    Graph,
    Kind,
    LabeledTask,
    NodeKind,
    ServiceCategory,
    Split,
    SplitAssignment,
    build_from_corpus,
    compute_imbalance,
    init_type_codes,
    load_graph,
    manufacturer,
    mask_target,
    restore_target,
    service,
    stratified_split,
    tokenize,
    write_graph_files,
)
from .seng import (
    AugmentedGraph,
    SengConfig,
    SyntheticNodeRecord,
    generate_synthetic_node,
    num_synthetic_nodes,
    oversample,
    without_oversampling,
)
from .features import (
    EmbeddingConfig,
    TsneConfig,
    build_neighbor_paragraphs,
    integrate_features,
    reduce_to_plane,
    train_paragraph_vectors,
)
from .models import (
    ModelParameters,
    TrainConfig,
    adam_step,
    forward,
    load_checkpoint,
    predict_labels,
    save_checkpoint,
    train_link_predictor,
    train_node_classifier,
    weighted_bce_loss,
)
from .metrics import auc_pr, auc_roc
from .harness import (
    MethodSpec,
    MetricReport,
    PipelineConfig,
    PlantedDatasetSpec,
    SweepSpec,
    downsample_to_ratio,
    generate_planted_dataset,
    planted_task,
    run_method,
    sweep,
)

__version__ = "0.1.0"
