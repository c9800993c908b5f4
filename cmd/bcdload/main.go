// Command bcdload is a closed-loop mixed read/mutate load generator for a
// running bcd daemon. It answers the serving-layer question the paper's
// offline numbers cannot: does the amortized decomposition actually hold up
// as a service — do cached top-K reads stay fast while mutation bursts are
// coalesced into few epochs, and is overload shed with 429 instead of being
// misreported as client error?
//
// Two phases, both closed-loop (each worker issues its next request only
// after the previous one finishes, so the offered load adapts to the
// server):
//
//  1. baseline — readers only, measuring the undisturbed cached-read
//     latency distribution;
//  2. mixed — the same readers plus mutator workers toggling edges as fast
//     as admission control lets them.
//
// The summary compares the two read distributions (the p99 ratio is the
// "reads never queue behind a rebuild" check), reports the
// mutations-per-epoch amortization factor observed via the graph's epoch
// counter, and fails on any unexpected status (anything other than 200 for
// reads; 200/429 for mutations).
//
//	bcdload -addr http://localhost:8723 -graph load -dataset email-enron \
//	        -readers 4 -mutators 4 -duration 10s
//
// The summary goes to stdout. The measured, verified serving numbers the
// repository's claims rest on come from `go run ./bench -workload serve`
// (bench/README.md); bcdload is the driver for a daemon that is already up.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

func main() {
	var (
		addr      = flag.String("addr", "http://localhost:8723", "bcd base URL")
		graphName = flag.String("graph", "load", "graph name to target (loaded if absent)")
		dataset   = flag.String("dataset", "email-enron", "dataset to load when the graph is absent")
		scale     = flag.Float64("scale", 0.25, "dataset scale for the initial load")
		readers   = flag.Int("readers", 4, "concurrent closed-loop top-K readers")
		mutators  = flag.Int("mutators", 2, "concurrent edge-mutator workers")
		burst     = flag.Int("burst", 8, "mutations each mutator fires concurrently per round (exercises batching)")
		pace      = flag.Duration("pace", 500*time.Millisecond, "idle time between a mutator's bursts (0 = saturate)")
		top       = flag.Int("top", 10, "top-K size requested by readers")
		duration  = flag.Duration("duration", 10*time.Second, "length of the mixed phase")
		baseline  = flag.Duration("baseline", 0, "length of the read-only baseline phase (0 = same as -duration)")
		maxRatio  = flag.Float64("max-p99-ratio", 0, "fail if mixed read p99 exceeds baseline p99 by this factor (0 = report only)")
		quiet     = flag.Bool("quiet", false, "suppress progress logging")
	)
	flag.Parse()

	logger := log.New(os.Stderr, "bcdload: ", 0)
	if *quiet {
		logger.SetOutput(io.Discard)
	}
	if *baseline <= 0 {
		*baseline = *duration
	}

	h := &harness{
		base:   *addr,
		graph:  *graphName,
		client: &http.Client{Timeout: 60 * time.Second},
		log:    logger,
	}

	verts, err := h.ensureLoaded(*dataset, *scale)
	if err != nil {
		logger.SetOutput(os.Stderr)
		logger.Fatalf("load %q: %v", *graphName, err)
	}
	logger.Printf("graph %q ready (%d vertices)", *graphName, verts)

	pairs, err := h.claimMutatorPairs(*mutators**burst, verts)
	if err != nil {
		logger.SetOutput(os.Stderr)
		logger.Fatalf("mutator setup: %v", err)
	}

	logger.Printf("baseline: %d readers for %s", *readers, *baseline)
	base := h.runPhase(*readers, nil, 0, 0, *top, *baseline)

	infoBefore, err := h.info()
	if err != nil {
		logger.SetOutput(os.Stderr)
		logger.Fatalf("info: %v", err)
	}
	logger.Printf("mixed: %d readers + %d mutators (burst %d, pace %s) for %s",
		*readers, *mutators, *burst, *pace, *duration)
	mixed := h.runPhase(*readers, pairs, *burst, *pace, *top, *duration)
	infoAfter, err := h.info()
	if err != nil {
		logger.SetOutput(os.Stderr)
		logger.Fatalf("info: %v", err)
	}

	epochs := int64(infoAfter.Epoch - infoBefore.Epoch)
	applied := mixed.mutateOK.Load()
	amortization := 0.0
	if epochs > 0 {
		amortization = float64(applied) / float64(epochs)
	}

	baseP50 := metrics.Percentile(base.readLat, 50)
	baseP99 := metrics.Percentile(base.readLat, 99)
	mixP50 := metrics.Percentile(mixed.readLat, 50)
	mixP99 := metrics.Percentile(mixed.readLat, 99)
	mutP99 := metrics.Percentile(mixed.mutLat, 99)

	fmt.Printf("read  baseline: n=%d p50=%s p99=%s\n", len(base.readLat), baseP50, baseP99)
	fmt.Printf("read  mixed:    n=%d p50=%s p99=%s\n", len(mixed.readLat), mixP50, mixP99)
	fmt.Printf("mutate:         ok=%d overload429=%d p99=%s\n", applied, mixed.mutate429.Load(), mutP99)
	fmt.Printf("epochs:         %d published for %d mutations (%.1f mutations/epoch)\n", epochs, applied, amortization)
	ratio := 0.0
	if baseP99 > 0 {
		ratio = float64(mixP99) / float64(baseP99)
	}
	fmt.Printf("read p99 ratio: %.2fx (mixed vs baseline)\n", ratio)

	unexpected := base.unexpected.Load() + mixed.unexpected.Load()
	if unexpected > 0 {
		fmt.Fprintf(os.Stderr, "bcdload: FAIL: %d unexpected responses (want only 200 for reads, 200/429 for mutations); last: %s\n",
			unexpected, mixed.lastUnexpected())
		os.Exit(1)
	}
	if *maxRatio > 0 && ratio > *maxRatio {
		fmt.Fprintf(os.Stderr, "bcdload: FAIL: mixed read p99 %s is %.2fx baseline %s (gate %.2fx)\n",
			mixP99, ratio, baseP99, *maxRatio)
		os.Exit(1)
	}
}

// harness holds the shared HTTP plumbing.
type harness struct {
	base   string
	graph  string
	client *http.Client
	log    *log.Logger
}

// entryInfo mirrors the fields of the server's EntryInfo that bcdload reads.
type entryInfo struct {
	State string `json:"state"`
	Error string `json:"error"`
	Verts int    `json:"verts"`
	Epoch uint64 `json:"epoch"`
}

func (h *harness) info() (entryInfo, error) {
	resp, err := h.client.Get(h.base + "/v1/graphs/" + h.graph)
	if err != nil {
		return entryInfo{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return entryInfo{}, fmt.Errorf("GET info: %d %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	var info entryInfo
	return info, json.NewDecoder(resp.Body).Decode(&info)
}

// ensureLoaded loads the target graph if bcd does not already serve it
// (a 409 conflict means it exists — e.g. recovered from a durable data dir)
// and polls until it is ready.
func (h *harness) ensureLoaded(dataset string, scale float64) (int, error) {
	spec, _ := json.Marshal(map[string]any{
		"name": h.graph, "dataset": dataset, "scale": scale,
	})
	resp, err := h.client.Post(h.base+"/v1/graphs", "application/json", bytes.NewReader(spec))
	if err != nil {
		return 0, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusAccepted, http.StatusConflict:
	default:
		return 0, fmt.Errorf("POST /v1/graphs: unexpected status %d", resp.StatusCode)
	}
	deadline := time.Now().Add(5 * time.Minute)
	for time.Now().Before(deadline) {
		info, err := h.info()
		if err != nil {
			return 0, err
		}
		switch info.State {
		case "ready":
			return info.Verts, nil
		case "loading":
			time.Sleep(50 * time.Millisecond)
		default:
			return 0, fmt.Errorf("graph %q is %s: %s", h.graph, info.State, info.Error)
		}
	}
	return 0, fmt.Errorf("graph %q still loading after 5m", h.graph)
}

// mutPair is one mutator's dedicated edge; the worker toggles it so every
// request is valid (never a duplicate insert or absent removal) and the only
// expected statuses are 200 and 429.
type mutPair struct{ u, v int }

// claimMutatorPairs finds one absent vertex pair per mutator and inserts it
// (untimed), so the measured loop can alternate remove/insert cleanly.
func (h *harness) claimMutatorPairs(mutators, verts int) ([]mutPair, error) {
	if mutators == 0 {
		return nil, nil
	}
	if verts < 4 {
		return nil, fmt.Errorf("graph too small (%d vertices) for mutators", verts)
	}
	rng := rand.New(rand.NewSource(7))
	pairs := make([]mutPair, 0, mutators)
	for len(pairs) < mutators {
		claimed := false
		for try := 0; try < 200; try++ {
			u, v := rng.Intn(verts), rng.Intn(verts)
			if u == v {
				continue
			}
			code, err := h.mutate(true, u, v)
			if err != nil {
				return nil, err
			}
			if code == http.StatusTooManyRequests {
				time.Sleep(100 * time.Millisecond)
				continue
			}
			if code == http.StatusOK {
				pairs = append(pairs, mutPair{u, v})
				claimed = true
				break
			}
			// 400: the edge already exists (or is otherwise unusable) — try
			// another pair.
		}
		if !claimed {
			return nil, fmt.Errorf("could not claim an absent edge after 200 tries")
		}
	}
	return pairs, nil
}

func (h *harness) mutate(add bool, u, v int) (int, error) {
	url := fmt.Sprintf("%s/v1/graphs/%s/edges?from=%d&to=%d", h.base, h.graph, u, v)
	method := http.MethodPost
	if !add {
		method = http.MethodDelete
	}
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		return 0, err
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return 0, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, nil
}

// phaseResult aggregates one phase's closed-loop measurements.
type phaseResult struct {
	mu      sync.Mutex
	readLat []time.Duration
	mutLat  []time.Duration

	readOK     atomic.Int64
	mutateOK   atomic.Int64
	mutate429  atomic.Int64
	unexpected atomic.Int64
	lastBad    atomic.Pointer[string]
}

func (p *phaseResult) lastUnexpected() string {
	if s := p.lastBad.Load(); s != nil {
		return *s
	}
	return "(none)"
}

func (p *phaseResult) noteUnexpected(kind string, code int) {
	p.unexpected.Add(1)
	s := fmt.Sprintf("%s -> %d", kind, code)
	p.lastBad.Store(&s)
}

// runPhase drives readers (and mutators, when pairs is non-empty) for d and
// collects latencies. Readers are closed-loop: each one's next request
// starts only after the previous response is fully read. Mutators model
// bursty write traffic: each fires its `burst` edge toggles concurrently,
// waits for every acknowledgement, then idles for `pace` — the concurrent
// burst is what lands multiple ops in one server-side batch, and the pacing
// keeps the offered write load from saturating the host, which is the
// regime the "reads stay flat" comparison is about.
func (h *harness) runPhase(readers int, pairs []mutPair, burst int, pace time.Duration, top int, d time.Duration) *phaseResult {
	res := &phaseResult{}
	stop := make(chan struct{})
	var wg sync.WaitGroup

	readURL := fmt.Sprintf("%s/v1/graphs/%s/bc?top=%d", h.base, h.graph, top)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lat []time.Duration
			for !closed(stop) {
				start := time.Now()
				resp, err := h.client.Get(readURL)
				if err != nil {
					res.noteUnexpected("read", 0)
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				took := time.Since(start)
				if resp.StatusCode == http.StatusOK {
					res.readOK.Add(1)
					lat = append(lat, took)
				} else {
					res.noteUnexpected("read", resp.StatusCode)
				}
			}
			res.mu.Lock()
			res.readLat = append(res.readLat, lat...)
			res.mu.Unlock()
		}()
	}

	if burst > 0 {
		for off := 0; off+burst <= len(pairs); off += burst {
			wg.Add(1)
			go func(mine []mutPair) {
				defer wg.Done()
				// Each pair was inserted at claim time; the first toggle
				// removes it.
				add := make([]bool, len(mine))
				var mu sync.Mutex
				var lat []time.Duration
				for !closed(stop) {
					var batch sync.WaitGroup
					for i := range mine {
						batch.Add(1)
						go func(i int) {
							defer batch.Done()
							start := time.Now()
							code, err := h.mutate(add[i], mine[i].u, mine[i].v)
							if err != nil {
								res.noteUnexpected("mutate", 0)
								return
							}
							took := time.Since(start)
							switch code {
							case http.StatusOK:
								res.mutateOK.Add(1)
								add[i] = !add[i]
								mu.Lock()
								lat = append(lat, took)
								mu.Unlock()
							case http.StatusTooManyRequests:
								// Admission control said back off; honoring
								// it is part of the protocol under test —
								// the pair is retried next round.
								res.mutate429.Add(1)
							default:
								res.noteUnexpected("mutate", code)
							}
						}(i)
					}
					batch.Wait()
					if pace > 0 {
						select {
						case <-stop:
						case <-time.After(pace):
						}
					}
				}
				res.mu.Lock()
				res.mutLat = append(res.mutLat, lat...)
				res.mu.Unlock()
			}(pairs[off : off+burst])
		}
	}

	time.Sleep(d)
	close(stop)
	wg.Wait()
	return res
}

func closed(ch chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}
