// Package eddl is the deep-learning substrate of the paper's §III-D: a
// small neural-network library in the role of EDDL (the European
// Distributed Deep Learning library), plus the PyCOMPSs-distributed
// data-parallel trainer of Figures 9 (plain) and 10 (nested).
//
// The network architecture the paper converged on — "two 1-dimensional
// convolutional layers with 32 filters and a final dense layer with 32
// neurons" — is available through NewCNN. Training is plain mini-batch SGD
// on softmax cross-entropy; data parallelism retrieves the weights of every
// worker after each epoch, merges (averages) them, and seeds the next epoch,
// exactly the synchronisation pattern whose cost the paper analyses.
//
// # Public surface
//
// Layer implementations (Conv1D, Dense, ReLU) compose into a Network;
// NewCNN builds the paper's architecture. TrainKFold runs the data-parallel
// cross-validated trainer on a compss runtime (plain or nested — Figures 9
// and 10); TrainFederated is the federated variant.
//
// # Concurrency and ownership
//
// A Network and its layers are single-goroutine objects: the distributed
// trainers give each worker task its own replica (weights are copied in and
// out through the Weights/SetWeights round-trip) and merge results on the
// master. Scratch buffers are pooled per network; ReleaseScratch returns
// them. Nothing here is safe for concurrent use of a single instance.
package eddl
