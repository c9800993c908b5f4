package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"log"
	"net/http"
	"strconv"
	"time"

	"repro/internal/graph"
)

// Server is the bcd HTTP API over a Registry. It implements http.Handler.
//
// Routes (all JSON unless noted):
//
//	POST   /v1/graphs                      load a graph (async; 202 + poll)
//	GET    /v1/graphs                      list loaded graphs
//	GET    /v1/graphs/{name}               status / info of one graph
//	DELETE /v1/graphs/{name}               unload
//	GET    /v1/graphs/{name}/bc?top=K      top-K scores (top=0: full array), exact
//	                                       only: kept exact per edit, no sample beats them
//	GET    /v1/graphs/{name}/vertices/{v}  one vertex's score, rank, degrees
//	POST   /v1/graphs/{name}/edges         insert an edge
//	DELETE /v1/graphs/{name}/edges         remove an edge
//	GET    /v1/graphs/{name}/stats         articulation-point census
//	GET    /healthz                        liveness (text)
//	GET    /metrics                        Prometheus text format
type Server struct {
	reg *Registry
	mux *http.ServeMux
	log *log.Logger
}

// New builds a Server over reg. logger may be nil for silence. /metrics
// serves reg's metrics.
func New(reg *Registry, logger *log.Logger) *Server {
	s := &Server{reg: reg, mux: http.NewServeMux(), log: logger}
	s.route("POST /v1/graphs", s.handleLoad)
	s.route("GET /v1/graphs", s.handleList)
	s.route("GET /v1/graphs/{name}", s.handleGraph)
	s.route("DELETE /v1/graphs/{name}", s.handleUnload)
	s.route("GET /v1/graphs/{name}/bc", s.handleBC)
	s.route("GET /v1/graphs/{name}/vertices/{v}", s.handleVertex)
	s.route("POST /v1/graphs/{name}/edges", s.handleInsertEdge)
	s.route("DELETE /v1/graphs/{name}/edges", s.handleRemoveEdge)
	s.route("GET /v1/graphs/{name}/stats", s.handleStats)
	s.route("GET /healthz", s.handleHealthz)
	s.route("GET /metrics", s.handleMetrics)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// statusWriter captures the response code for instrumentation.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// route registers an instrumented handler under a Go 1.22 mux pattern
// ("METHOD /path/{wildcard}"). The pattern itself is the route label, so
// metric cardinality never grows with traffic.
func (s *Server) route(pattern string, h http.HandlerFunc) {
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h(sw, r)
		took := time.Since(start)
		s.reg.m.ObserveRequest(pattern, r.Method, sw.code, took)
		if s.log != nil {
			s.log.Printf("%s %s -> %d (%s)", r.Method, r.URL.Path, sw.code, took)
		}
	})
}

type errorBody struct {
	Error string `json:"error"`
}

// writeJSON encodes v before it commits to code, so a value JSON cannot carry
// (a NaN or infinite score) is a 500 with an error body, not a 200 with none.
func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		if s.log != nil {
			s.log.Printf("server: encode response: %v", err)
		}
		buf.Reset()
		code = http.StatusInternalServerError
		_ = enc.Encode(errorBody{Error: "encode response: " + err.Error()}) // a string always encodes
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(buf.Bytes()) // a failed write means the client has gone: nobody is left to tell
}

// writeError maps registry errors onto HTTP status codes. Overload and
// shutdown are server-side conditions (429/503), never 400: a client that
// did nothing wrong must not be told it did.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	code := http.StatusBadRequest
	var conflict *ConflictError
	var notReady *NotReadyError
	var vrange *VertexRangeError
	var overload *OverloadError
	var durability *DurabilityError
	var outside loadRootError
	switch {
	case errors.As(err, &overload):
		// Admission control: load shedding with an explicit backoff hint.
		retry := int(overload.RetryAfter / time.Second)
		if retry < 1 {
			retry = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(retry))
		code = http.StatusTooManyRequests
	case errors.Is(err, ErrShutdown):
		code = http.StatusServiceUnavailable
	case errors.As(err, &durability):
		// The storage layer failed, not the request.
		code = http.StatusInternalServerError
	case errors.As(err, &conflict):
		code = http.StatusConflict
	case errors.As(err, &notReady):
		switch notReady.State {
		case StateLoading:
			// The canonical "come back later" answer for job polling.
			code = http.StatusConflict
		case StateAborted:
			// Shutdown took the build down, not a bad request.
			code = http.StatusServiceUnavailable
		default:
			code = http.StatusUnprocessableEntity
		}
	case errors.As(err, &vrange):
		code = http.StatusNotFound
	case errors.As(err, &outside) && errors.Is(err, fs.ErrNotExist):
		code = http.StatusNotFound
	case errors.As(err, &outside):
		code = http.StatusForbidden
	}
	s.writeJSON(w, code, errorBody{Error: err.Error()})
}

func (s *Server) writeNotFound(w http.ResponseWriter, name string) {
	s.writeJSON(w, http.StatusNotFound, errorBody{Error: fmt.Sprintf("server: graph %q not loaded", name)})
}

// entry resolves {name}, writing 404 on a miss.
func (s *Server) entry(w http.ResponseWriter, r *http.Request) *Entry {
	name := r.PathValue("name")
	e := s.reg.Get(name)
	if e == nil {
		s.writeNotFound(w, name)
	}
	return e
}

// ---- handlers --------------------------------------------------------------

func (s *Server) handleLoad(w http.ResponseWriter, r *http.Request) {
	var spec LoadSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 64<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		s.writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad load spec: " + err.Error()})
		return
	}
	e, err := s.reg.load(spec, s.reg.cfg.LoadRoot)
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.writeJSON(w, http.StatusAccepted, e.Info())
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, struct {
		Graphs []EntryInfo `json:"graphs"`
	}{s.reg.List()})
}

func (s *Server) handleGraph(w http.ResponseWriter, r *http.Request) {
	e := s.entry(w, r)
	if e == nil {
		return
	}
	s.writeJSON(w, http.StatusOK, e.Info())
}

func (s *Server) handleUnload(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !s.reg.Unload(name) {
		s.writeNotFound(w, name)
		return
	}
	s.writeJSON(w, http.StatusOK, struct {
		Name     string `json:"name"`
		Unloaded bool   `json:"unloaded"`
	}{name, true})
}

type bcResponse struct {
	Name  string `json:"name"`
	Verts int    `json:"verts"`
	// Top is the top-K list; Scores is the full per-vertex array when the
	// request asked for everything (top=0).
	Top    []VertexScore `json:"top,omitempty"`
	Scores []float64     `json:"scores,omitempty"`
}

// handleBC serves the exact scores the entry maintains; top is the one query
// parameter. bcd has no sampling mode: a sampled estimate of scores it already
// holds exactly could be neither cheaper nor closer (sampling is `bc -approx`).
func (s *Server) handleBC(w http.ResponseWriter, r *http.Request) {
	e := s.entry(w, r)
	if e == nil {
		return
	}
	q := r.URL.Query()
	for key := range q {
		if key != "top" {
			s.writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf(
				"bc takes only top, not %q: bcd serves the exact scores it maintains (sampled BC is `bc -approx`)", key)})
			return
		}
	}
	top := 10
	if raw := q.Get("top"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v < 0 {
			s.writeJSON(w, http.StatusBadRequest, errorBody{Error: "top must be a non-negative integer"})
			return
		}
		top = v
	}

	if top == 0 {
		// The epoch's score vector is immutable, so the handler serves it
		// without copying; JSON encoding only reads it.
		scores, err := e.BCView()
		if err != nil {
			s.writeError(w, err)
			return
		}
		s.writeJSON(w, http.StatusOK, bcResponse{Name: e.Name(), Verts: len(scores), Scores: scores})
		return
	}
	// Top-K: the first query of an epoch ranks it, every later one (any K)
	// slices that ranking, so the cached-read lane costs O(K) per request
	// while mutations rebuild.
	ranked, n, hit, err := e.TopKCoalesced(top)
	if err != nil {
		s.writeError(w, err)
		return
	}
	result := "miss"
	if hit {
		result = "hit"
	}
	s.reg.m.topk.With(result).Inc()
	s.writeJSON(w, http.StatusOK, bcResponse{Name: e.Name(), Verts: n, Top: ranked})
}

func (s *Server) handleVertex(w http.ResponseWriter, r *http.Request) {
	e := s.entry(w, r)
	if e == nil {
		return
	}
	v, err := strconv.Atoi(r.PathValue("v"))
	if err != nil {
		s.writeJSON(w, http.StatusBadRequest, errorBody{Error: "vertex id must be an integer"})
		return
	}
	info, err := e.Vertex(v)
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, info)
}

type edgeRequest struct {
	From graph.V `json:"from"`
	To   graph.V `json:"to"`
}

// edgeArgs reads (from, to) from the JSON body or, for bodyless DELETEs,
// from query parameters.
func edgeArgs(r *http.Request) (edgeRequest, error) {
	q := r.URL.Query()
	if q.Has("from") || q.Has("to") {
		from, err1 := strconv.Atoi(q.Get("from"))
		to, err2 := strconv.Atoi(q.Get("to"))
		if err1 != nil || err2 != nil {
			return edgeRequest{}, fmt.Errorf("from and to must be integers")
		}
		return edgeRequest{From: graph.V(from), To: graph.V(to)}, nil
	}
	var req edgeRequest
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return edgeRequest{}, fmt.Errorf("bad edge body (want {\"from\":u,\"to\":v} or ?from=u&to=v): %w", err)
	}
	return req, nil
}

func (s *Server) mutate(w http.ResponseWriter, r *http.Request, add bool) {
	e := s.entry(w, r)
	if e == nil {
		return
	}
	req, err := edgeArgs(r)
	if err != nil {
		s.writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	if r.Context().Err() != nil {
		// The client disconnected or canceled BEFORE we enqueued anything:
		// skip the write entirely and say so unambiguously. 499 (nginx's
		// "client closed request") rather than 400 — the request wasn't
		// malformed, it was abandoned. Once Mutate enqueues, it waits for
		// the outcome regardless of the client, so a 200 always means the
		// mutation was applied and an abort always means it was not.
		s.writeJSON(w, statusClientClosedRequest, canceledBody{
			Error:   "request canceled before any write",
			Applied: false,
		})
		return
	}
	res, err := s.reg.Mutate(e, add, req.From, req.To)
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, res)
}

// statusClientClosedRequest is nginx's conventional code for a request the
// client abandoned; Go's net/http has no named constant for it.
const statusClientClosedRequest = 499

// canceledBody is the mutation-abort response: Applied is explicit so the
// effect-vs-abort status never has to be inferred from the status code.
type canceledBody struct {
	Error   string `json:"error"`
	Applied bool   `json:"applied"`
}

func (s *Server) handleInsertEdge(w http.ResponseWriter, r *http.Request) { s.mutate(w, r, true) }
func (s *Server) handleRemoveEdge(w http.ResponseWriter, r *http.Request) { s.mutate(w, r, false) }

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	e := s.entry(w, r)
	if e == nil {
		return
	}
	census, err := e.Census()
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, census)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.m.SampleWorkspacePool()
	if _, err := s.reg.m.WriteTo(w); err != nil && s.log != nil {
		s.log.Printf("server: write metrics: %v", err)
	}
}
