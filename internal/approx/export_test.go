package approx

// Batches returns the number of stored stochastic batch vectors.
func (e *Estimator) Batches() int { return len(e.batches) }
