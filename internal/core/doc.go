// Package core is the paper's application: distributed machine-learning
// workflows for atrial-fibrillation detection from single-lead ECG
// (§III). It wires the substrates together — synthetic ECG generation and
// augmentation (internal/ecg), zero-padding + STFT features
// (internal/sigproc), distributed PCA (internal/preproc), and the four
// classifiers (internal/svm, internal/knn, internal/forest, internal/eddl) —
// into the exact experiment pipelines of the paper's evaluation (§IV).
//
// # Public surface
//
// BuildDataset constructs the augmented feature dataset from a DataConfig
// (TableIData gives the calibrated Table I configuration). PipelineConfig
// carries every experiment knob — folds, block geometry, the estimators'
// parameters, and in Runtime the compss.Config of every runtime the
// pipeline builds: retry policy, observers, and the execution Backend (nil
// in-process, exec.Remote for worker processes). A Model names one
// workflow: the four classifiers of §IV, and ModelCNNNested for Figure
// 10's nested CNN training. RunCV runs a full cross-validation for one
// Model; ReduceWithPCA + RunCVReduced split out the shared PCA stage;
// TrainGraph captures a training workflow's task graph for replay. A
// cross-validation fold and TrainGraph submit a classical model's training
// the same way, so a figure's graph is a fold's training workflow.
//
// # Concurrency and ownership
//
// Each Run*/TrainGraph call drives its own compss.Runtime and is safe to
// call from one goroutine at a time per runtime; datasets returned by
// BuildDataset are immutable after construction and may be shared across
// concurrent runs. A caller-provided Runtime.Backend is borrowed, not
// owned: the caller closes it.
package core
