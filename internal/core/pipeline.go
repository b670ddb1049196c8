package core

import (
	"fmt"
	"math"

	"taskml/internal/compss"
	"taskml/internal/dsarray"
	"taskml/internal/eddl"
	"taskml/internal/forest"
	"taskml/internal/knn"
	"taskml/internal/mat"
	"taskml/internal/metrics"
	"taskml/internal/preproc"
	"taskml/internal/svm"
)

// Model identifies one of the paper's workflows: a classifier and how its
// training is submitted.
type Model string

// The four models compared in §IV, and Figure 10's way to train the CNN.
const (
	ModelCSVM Model = "csvm"
	ModelKNN  Model = "knn"
	ModelRF   Model = "rf"
	ModelCNN  Model = "cnn"
	// ModelCNNNested is ModelCNN's network, folds and epochs with each
	// fold's training nested in one task (Figure 10).
	ModelCNNNested Model = "cnn-nested"
)

// Models lists the four models of §IV.
var Models = []Model{ModelCSVM, ModelKNN, ModelRF, ModelCNN}

// pcaVariance is the variance the pipeline's PCA retains: the paper
// preserves "the 95% of the information".
const pcaVariance = 0.95

// PipelineConfig parameterises the experiment pipelines.
type PipelineConfig struct {
	// Runtime configures every runtime the pipeline constructs (RunCV and
	// TrainGraph pass it to compss.New as it is): real parallelism, the
	// retry budget and backoff, injected faults, observers such as a
	// trace.Collector behind the cmd tools' -trace flag, and the backend
	// — nil runs registered bodies in-process; an exec.Remote, the cmd
	// tools' -backend=remote, ships them to worker processes. The caller
	// owns the backend and closes it after the pipeline finishes.
	Runtime compss.Config
	// Folds is the cross-validation arity. Default 5 (every experiment in
	// the paper runs K-fold with K=5).
	Folds int
	// BlockRows and BlockCols are the ds-array blocking. The paper uses
	// 500×500 for CSVM and 250×250 for KNN; defaults 100×100 match the
	// scaled-down dataset.
	BlockRows, BlockCols int
	// Seed drives fold splitting and estimator seeds.
	Seed int64

	// CSVM configures the CascadeSVM estimator.
	CSVM svm.CascadeParams
	// KNN configures the KNN estimator.
	KNN knn.Params
	// RF configures the RandomForest estimator.
	RF forest.Params
	// CNNArch configures the network (InputLen is overwritten with the
	// post-PCA dimensionality).
	CNNArch eddl.Arch
	// CNNTrain configures the distributed CNN training.
	CNNTrain eddl.TrainConfig
}

func (c PipelineConfig) withDefaults() PipelineConfig {
	if c.Folds == 0 {
		c.Folds = 5
	}
	if c.BlockRows == 0 {
		c.BlockRows = 100
	}
	if c.BlockCols == 0 {
		c.BlockCols = 100
	}
	if c.CSVM.SVC.C == 0 {
		c.CSVM.SVC.C = 10
	}
	if c.CSVM.Iterations == 0 {
		c.CSVM.Iterations = 2
	}
	if c.RF.NEstimators == 0 {
		c.RF.NEstimators = 40
	}
	if c.RF.DistrDepth == 0 {
		c.RF.DistrDepth = 2
	}
	if c.CNNArch.Filters == 0 {
		c.CNNArch.Filters = 16
	}
	if c.CNNArch.Stride == 0 {
		c.CNNArch.Stride = 2
	}
	if c.CNNTrain.LR == 0 {
		c.CNNTrain.LR = 0.1
	}
	if c.CNNTrain.Batch == 0 {
		c.CNNTrain.Batch = 16
	}
	c.CNNTrain.Seed = c.Seed
	c.CSVM.SVC.Seed = c.Seed
	c.RF.Seed = c.Seed
	return c
}

// CVReport is the outcome of a cross-validated experiment — the material
// of the paper's Table I.
type CVReport struct {
	Model          Model
	Confusion      *metrics.Confusion
	FoldAccuracies []float64
	// PCAK is the post-PCA dimensionality.
	PCAK int
	// Runtime exposes the captured workflow graph for replay.
	Runtime *compss.Runtime
}

// Accuracy returns the pooled accuracy across folds.
func (r *CVReport) Accuracy() float64 { return r.Confusion.Accuracy() }

// RenderConfusion renders the pooled matrix in Table I layout (AF row
// first).
func (r *CVReport) RenderConfusion() string {
	return r.Confusion.Render(ClassLabels)
}

// Standardize z-scores the columns of x (a fresh matrix) — the network's
// input normalisation. Spectral power features span orders of magnitude,
// which SGD on a small CNN cannot absorb.
func Standardize(x *mat.Dense) *mat.Dense {
	out := x.Clone()
	means := mat.ColMeans(out)
	mat.SubRowVec(out, means)
	for j := 0; j < out.Cols; j++ {
		var ss float64
		for i := 0; i < out.Rows; i++ {
			v := out.At(i, j)
			ss += float64(v * v)
		}
		std := 1.0
		if ss > 0 {
			std = math.Sqrt(ss / float64(out.Rows))
		}
		for i := 0; i < out.Rows; i++ {
			out.Set(i, j, out.At(i, j)/std)
		}
	}
	return out
}

// ReduceWithPCA runs the distributed PCA of §III-B.4 on the dataset and
// collects the reduced features to the master. The paper fits PCA once on
// the full dataset before the per-model cross-validations and excludes its
// (constant, ≈850 s) time from the per-model plots; we follow the same
// protocol.
func ReduceWithPCA(rt *compss.Runtime, ds *Dataset, cfg PipelineConfig) (*mat.Dense, int, error) {
	cfg = cfg.withDefaults()
	xa := dsarray.FromMatrix(rt.Main(), ds.X, cfg.BlockRows, cfg.BlockCols)
	pca := preproc.PCA{VarianceToRetain: pcaVariance}
	reduced, err := pca.FitTransform(xa)
	if err != nil {
		return nil, 0, fmt.Errorf("core: PCA: %w", err)
	}
	rx, err := reduced.Collect()
	if err != nil {
		return nil, 0, fmt.Errorf("core: collecting PCA output: %w", err)
	}
	return rx, pca.K(), nil
}

// foldArrays builds the per-fold train/test ds-arrays from master-resident
// reduced features.
func foldArrays(tc *compss.TaskCtx, x *mat.Dense, y []int, fold metrics.Fold, brows int) (xtr, ytr, xte, yte *dsarray.Array) {
	take := func(idx []int) (*dsarray.Array, *dsarray.Array) {
		sub := mat.TakeRows(x, idx)
		labels := make([]int, len(idx))
		for i, r := range idx {
			labels[i] = y[r]
		}
		return dsarray.FromMatrix(tc, sub, brows, sub.Cols), dsarray.FromLabels(tc, labels, brows)
	}
	xtr, ytr = take(fold.Train)
	xte, yte = take(fold.Test)
	return
}

// estimator is what fit needs of a classical model: dislib's fit and
// predict over ds-arrays.
type estimator interface {
	Fit(x, y *dsarray.Array) error
	Predict(x *dsarray.Array) (*dsarray.Array, error)
}

// fit submits the training workflow of a classical model (CSVM,
// StandardScaler+KNN or RF) on xtr, ytr and, given a test array xte, its
// prediction of xte, which it returns. Without one it submits the training
// alone and returns nil: the graph TrainGraph captures.
func fit(model Model, cfg PipelineConfig, xtr, ytr, xte *dsarray.Array) (*dsarray.Array, error) {
	var est estimator
	switch model {
	case ModelCSVM:
		est = &svm.CascadeSVM{Params: cfg.CSVM}
	case ModelKNN:
		// The paper's KNN pipeline applies a StandardScaler first
		// (§IV-B): fit on the training fold, transform both sides.
		var scaler preproc.StandardScaler
		var err error
		if xtr, err = scaler.FitTransform(xtr); err != nil {
			return nil, fmt.Errorf("scaler: %w", err)
		}
		if xte != nil {
			if xte, err = scaler.Transform(xte); err != nil {
				return nil, fmt.Errorf("scaler transform: %w", err)
			}
		}
		est = &knn.KNN{Params: cfg.KNN}
	case ModelRF:
		est = &forest.RandomForest{Params: cfg.RF}
	default:
		return nil, fmt.Errorf("unknown model %q", model)
	}
	if err := est.Fit(xtr, ytr); err != nil {
		return nil, fmt.Errorf("%s fit: %w", model, err)
	}
	if xte == nil {
		return nil, nil
	}
	pred, err := est.Predict(xte)
	if err != nil {
		return nil, fmt.Errorf("%s predict: %w", model, err)
	}
	return pred, nil
}

// foldConfusion collects a fold's predictions and tallies them.
func foldConfusion(pred, truth *dsarray.Array) (*metrics.Confusion, error) {
	p, err := dsarray.CollectLabels(pred)
	if err != nil {
		return nil, err
	}
	t, err := dsarray.CollectLabels(truth)
	if err != nil {
		return nil, err
	}
	conf := metrics.NewConfusion(2)
	conf.AddAll(t, p)
	return conf, nil
}

// RunCV executes the full cross-validated experiment for one model:
// distributed PCA, then per fold the model's training workflow and a
// distributed prediction, pooling the confusion matrices — the procedure
// behind Table I.
func RunCV(model Model, ds *Dataset, cfg PipelineConfig) (*CVReport, error) {
	cfg = cfg.withDefaults()
	rt := compss.New(cfg.Runtime)
	rx, k, err := ReduceWithPCA(rt, ds, cfg)
	if err != nil {
		return nil, err
	}
	return RunCVReduced(model, rt, rx, k, ds.Y, cfg)
}

// RunCVReduced runs the cross-validated experiment on already PCA-reduced
// features, submitting onto an existing runtime. The PCA stage is shared
// across the paper's experiments ("the time of executing the PCA ... is
// the same for each algorithm"), so callers comparing several models reuse
// one reduction.
func RunCVReduced(model Model, rt *compss.Runtime, rx *mat.Dense, k int, y []int, cfg PipelineConfig) (*CVReport, error) {
	cfg = cfg.withDefaults()
	report := &CVReport{Model: model, Confusion: metrics.NewConfusion(2), PCAK: k, Runtime: rt}

	if model == ModelCNN || model == ModelCNNNested {
		arch := cfg.CNNArch
		arch.InputLen = k
		res, err := eddl.TrainKFold(rt, Standardize(rx), y, arch, cfg.CNNTrain, model == ModelCNNNested)
		if err != nil {
			return nil, fmt.Errorf("core: CNN training: %w", err)
		}
		report.Confusion = res.Confusion
		report.FoldAccuracies = res.FoldAccuracies
		return report, nil
	}

	// Every fold is submitted before any is scored: nothing in fit
	// synchronises, so fold k+1's first tasks overlap fold k's last and
	// the main program stops once a model, not once a fold. The folds' blocks
	// are alive together until then.
	folds := metrics.StratifiedKFold(y, cfg.Folds, cfg.Seed)
	preds, truths := make([]*dsarray.Array, len(folds)), make([]*dsarray.Array, len(folds))
	for fi, fold := range folds {
		xtr, ytr, xte, yte := foldArrays(rt.Main(), rx, y, fold, cfg.BlockRows)
		pred, err := fit(model, cfg, xtr, ytr, xte)
		if err != nil {
			return nil, fmt.Errorf("core: fold %d: %w", fi, err)
		}
		preds[fi], truths[fi] = pred, yte
	}
	for fi := range folds {
		conf, err := foldConfusion(preds[fi], truths[fi])
		if err != nil {
			return nil, fmt.Errorf("core: fold %d score: %w", fi, err)
		}
		report.Confusion.Merge(conf)
		report.FoldAccuracies = append(report.FoldAccuracies, conf.Accuracy())
	}
	return report, nil
}

// TrainGraph builds (and really executes) the training workflow of one
// model on a fresh runtime, without cross-validation, and returns the
// runtime whose captured graph regenerates the scalability figures. The
// input features are expected to be already PCA-reduced: the paper's
// Figure 11 "did not consider the time of executing the PCA".
//
// For CSVM the graph is the cascade of Figure 4; for KNN, the
// StandardScaler + fit workflow of Figures 6/11b; for RF, the
// estimator/distr_depth workflow of Figure 8; for the CNN, the full K-fold
// training of Figure 9, and for ModelCNNNested that of Figure 10. The
// classical models submit through the same fit as RunCVReduced's folds.
func TrainGraph(model Model, x *mat.Dense, y []int, cfg PipelineConfig) (*compss.Runtime, error) {
	cfg = cfg.withDefaults()
	rt := compss.New(cfg.Runtime)
	tc := rt.Main()
	var err error
	if model == ModelCNN || model == ModelCNNNested {
		arch := cfg.CNNArch
		arch.InputLen = x.Cols
		_, err = eddl.TrainKFold(rt, x, y, arch, cfg.CNNTrain, model == ModelCNNNested)
	} else {
		xa := dsarray.FromMatrix(tc, x, cfg.BlockRows, cfg.BlockCols)
		ya := dsarray.FromLabels(tc, y, cfg.BlockRows)
		_, err = fit(model, cfg, xa, ya, nil)
	}
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if err := rt.Barrier(); err != nil {
		return nil, err
	}
	return rt, nil
}
