package server

// BC returns a copy of the current scores.
func (e *Entry) BC() ([]float64, error) {
	inc, err := e.ready()
	if err != nil {
		return nil, err
	}
	return inc.Snapshot().BC(), nil
}

// orDefaults is l with each bound it leaves at zero at its default: a test
// lowers the bounds it needs small and keeps the rest.
func (l limits) orDefaults() limits {
	d := defaultLimits
	if l.workers > 0 {
		d.workers = l.workers
	}
	if l.queueDepth > 0 {
		d.queueDepth = l.queueDepth
	}
	if l.snapshotEvery > 0 {
		d.snapshotEvery = l.snapshotEvery
	}
	if l.mutationQueue > 0 {
		d.mutationQueue = l.mutationQueue
	}
	if l.mutationBatch > 0 {
		d.mutationBatch = l.mutationBatch
	}
	if l.retryAfter > 0 {
		d.retryAfter = l.retryAfter
	}
	return d
}
