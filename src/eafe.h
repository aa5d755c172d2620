#ifndef EAFE_EAFE_H_
#define EAFE_EAFE_H_

/// Umbrella header: the public API of the eafe library.
///
/// Typical use (see examples/quickstart.cpp):
///   1. Build a data::Dataset (CSV or the synthetic factory).
///   2. Pre-train the FPE model once: afe::PretrainFpe(...).
///   3. Run afe::EafeSearch on any number of target datasets.
///
/// Individual headers remain includable on their own; this file is a
/// convenience for application code.

#include "afe/eafe.h"             // EafeSearch + ablation variants.
#include "afe/fpe_pretraining.h"  // PretrainFpe.
#include "afe/nfs.h"              // NFS baseline.
#include "afe/operators.h"        // Transformation operator set.
#include "afe/random_search.h"    // AutoFS_R baseline.
#include "core/status.h"          // Status / Result error model.
#include "data/csv.h"             // CSV input/output.
#include "data/dataframe.h"       // Column / DataFrame / Dataset.
#include "data/registry.h"        // The paper's 36 target datasets.
#include "data/synthetic.h"       // Synthetic dataset factory.
#include "ml/evaluator.h"         // Downstream-task evaluation.
#include "ml/feature_selection.h" // RF-importance pre-selection.
#include "serve/model_store.h"    // Save/Load trained models.

#endif  // EAFE_EAFE_H_
