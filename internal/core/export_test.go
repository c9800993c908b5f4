package core

import "repro/internal/decompose"

// Decomposition returns the current decomposition: decompose.Decompose of the
// current graph. Callers must treat it as read-only.
func (inc *Incremental) Decomposition() *decompose.Decomposition { return inc.cur.Load().d }
