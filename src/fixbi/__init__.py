"""Desk-scale laboratory for dual fixed-ratio mixup domain adaptation.

Two classifiers are trained on oppositely weighted mixtures of a labeled
source domain and an unlabeled target domain. After a warm-up phase they
teach each other their confident target predictions, penalize their own
low-confidence ones, and are pulled together on the half-half mixup domain.
A source-only trainer and a gradient-reversal adversarial baseline provide
the pretrained starting weights and the comparison anchors.
"""

from .baseline import (BaselineResult, dann_objective, train_dann,
                       train_source_only)
from .config import (ConfigError, DatasetSpec, MetricsRow, TrainConfig,
                     load_config, parse_config, serialize_config, validate_config)
from .core import (NonFiniteLossError, ThresholdStats,
                   adaptive_threshold, loss_bim, loss_cr, loss_fm, loss_sp,
                   mixup, pseudo_labels, ratio_rule_sample, train_fixbi)
from .data import (CsvFormatError, Dataset, PairedBatch, as_target_view,
                   gen_blobs_shift, gen_moons_shift, load_csv, one_hot,
                   paired_minibatches, save_csv)
from .harness import (ClasswiseRow, ExperimentResult, classwise_accuracy,
                      classwise_report, emit_report, execute, load_metrics_csv,
                      rank_class_gaps, run_experiment)
from .models import (ClassifierModel, DomainDiscriminator, DualState,
                     ensemble_predict, forward, forward_logits,
                     init_discriminator, init_model, load_checkpoint,
                     predict_labels, save_checkpoint)
from .numerics import (ParamSet, ShapeError, Tensor, backward, lr_schedule,
                       sgd_step)

__version__ = "0.1.0"
