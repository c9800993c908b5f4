package server

import (
	"errors"
	"fmt"
	"time"
)

// ErrShutdown reports an operation against a registry that has been closed.
// HTTP maps it to 503.
var ErrShutdown = errors.New("server: registry is shut down")

// errAborted is the error of a build that shutdown cut short (StateAborted).
var errAborted = errors.New("server: load aborted by shutdown")

// ConflictError reports a Load against a name already in use.
type ConflictError struct{ Name string }

func (e *ConflictError) Error() string {
	return fmt.Sprintf("server: graph %q already loaded", e.Name)
}

// OverloadError is the admission-control rejection: the bounded queue for Op
// ("build" or "mutation") is full. It is load shedding, not a client error —
// HTTP maps it to 429 with a Retry-After header, never 400.
type OverloadError struct {
	Op         string
	Name       string
	RetryAfter time.Duration
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("server: %s queue full for %q, retry after %s", e.Op, e.Name, e.RetryAfter)
}

// DurabilityError wraps a WAL or snapshot failure. The write-ahead ordering
// means a mutation whose WAL append failed was NOT applied.
type DurabilityError struct {
	Name string
	Err  error
}

func (e *DurabilityError) Error() string {
	return fmt.Sprintf("server: durability failure for %q: %v", e.Name, e.Err)
}

func (e *DurabilityError) Unwrap() error { return e.Err }

// NotReadyError reports an operation against an entry that is not serving;
// Cause is why its build failed, if it did (errors.Is sees through it, to
// graph.ErrPathCountOverflow for one).
type NotReadyError struct {
	Name  string
	State State
	Cause error
}

func (e *NotReadyError) Error() string {
	if e.Cause != nil {
		return fmt.Sprintf("server: graph %q is %s: %v", e.Name, e.State, e.Cause)
	}
	return fmt.Sprintf("server: graph %q is %s", e.Name, e.State)
}

func (e *NotReadyError) Unwrap() error { return e.Cause }

// VertexRangeError reports a vertex id outside [0, N).
type VertexRangeError struct{ Vertex, N int }

func (e *VertexRangeError) Error() string {
	return fmt.Sprintf("server: vertex %d out of range [0,%d)", e.Vertex, e.N)
}

// vertexCountError reports an inline n outside [0, 2³¹] — the bound graphio
// applies to a binary file's header, vertex ids being int32. HTTP answers it
// with 400 before any build is queued.
type vertexCountError struct{ N int }

func (e *vertexCountError) Error() string {
	return fmt.Sprintf("server: inline vertex count n=%d outside [0,%d]", e.N, 1<<31)
}

// loadRootError is a path the load root would not open: absolute, climbing
// out with "..", leaving through a symlink (HTTP 403), or missing (404).
type loadRootError struct{ err error }

func (e loadRootError) Error() string {
	return "server: not a file under the load root: " + e.err.Error()
}

func (e loadRootError) Unwrap() error { return e.err }
