// Command bcd is the long-running betweenness-centrality daemon: it keeps
// named graphs loaded with their articulation-point decomposition and BC
// scores cached, serves queries over a JSON HTTP API, and absorbs edge
// updates through the incremental engine instead of recomputing from
// scratch. It has no authentication, so it listens on the loopback interface
// unless -addr names another, and a path a client posts opens only under
// -load-root (403 outside it). Its flags say where it runs; its bounds are
// constants (DESIGN.md §5).
//
//	bcd                                     # listens on 127.0.0.1:8723
//	bcd -preload enron=email-enron:0.05
//	bcd -preload big=@/data/big.bin         # the operator's file: any path
//	bcd -load-root /data/graphs             # clients post paths relative to it
//	bcd -addr :8723                         # every interface: anyone who can reach it
//
// Endpoints (see README "Serving" for curl examples):
//
//	POST   /v1/graphs                      load a graph (async)
//	GET    /v1/graphs                      list
//	GET    /v1/graphs/{name}               status / info
//	DELETE /v1/graphs/{name}               unload
//	GET    /v1/graphs/{name}/bc?top=K      top-K BC scores, exact only: kept exact per
//	                                       edit, no sample beats them (bc -approx samples)
//	GET    /v1/graphs/{name}/vertices/{v}  one vertex
//	POST   /v1/graphs/{name}/edges         insert edge
//	DELETE /v1/graphs/{name}/edges         remove edge
//	GET    /v1/graphs/{name}/stats         articulation-point census
//	GET    /healthz                        liveness
//	GET    /metrics                        Prometheus text format
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/server"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:8723", "listen address (the API has no authentication)")
		preload  = flag.String("preload", "", "comma-separated name=dataset[:scale] or name=@/path/file graphs to load at startup (paths unconfined)")
		drain    = flag.Duration("drain", 10*time.Second, "graceful shutdown drain timeout")
		quiet    = flag.Bool("quiet", false, "suppress per-request logging")
		dataDir  = flag.String("data-dir", "", "durability directory: per-graph WAL + snapshots, replayed on restart (empty = in-memory only)")
		loadRoot = flag.String("load-root", ".", "directory a path posted to POST /v1/graphs must lie under (empty = any path bcd can read)")
	)
	flag.Parse()

	log.SetPrefix("bcd: ") // the registry logs through the standard logger too
	logger := log.Default()
	reqLog := logger
	if *quiet {
		reqLog = nil
	}

	reg := server.NewRegistry(server.Config{DataDir: *dataDir, LoadRoot: *loadRoot})
	srv := server.New(reg, reqLog)

	// Recovery before preload: a graph that survives on disk wins over a
	// -preload entry of the same name (Load would 409 on the conflict).
	if names, err := reg.Recover(); err != nil {
		logger.Fatalf("recover from %s: %v", *dataDir, err)
	} else if len(names) > 0 {
		logger.Printf("recovering %d graph(s) from %s: %s", len(names), *dataDir, strings.Join(names, ", "))
	}

	if err := preloadGraphs(reg, *preload); err != nil {
		logger.Fatalf("preload: %v", err)
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	logger.Printf("serving on %s (load root %q)", *addr, *loadRoot)

	select {
	case err := <-errCh:
		logger.Fatalf("listen: %v", err)
	case <-ctx.Done():
	}

	// Graceful shutdown: stop accepting, drain in-flight queries up to the
	// timeout, then abort queued recompute jobs.
	logger.Printf("shutting down (drain %s)", *drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Printf("drain incomplete: %v", err)
	}
	reg.Close()
	logger.Printf("bye")
}

// preloadGraphs parses "name=dataset[:scale],..." and enqueues the loads.
// An "@"-prefixed source is a file path instead of a dataset name
// ("big=@/data/big.bin"), the operator's, so -load-root does not confine it.
// A .bin file is read into the buffer the graph adopts, so preloading a
// 10^7-edge graph does not spike beyond the CSR it keeps resident.
func preloadGraphs(reg *server.Registry, spec string) error {
	if spec == "" {
		return nil
	}
	for _, part := range strings.Split(spec, ",") {
		name, src, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return fmt.Errorf("bad -preload entry %q (want name=dataset[:scale] or name=@/path/file)", part)
		}
		var ls server.LoadSpec
		if path, isFile := strings.CutPrefix(src, "@"); isFile {
			ls = server.LoadSpec{Name: name, Path: path}
		} else {
			dataset, scaleStr, hasScale := strings.Cut(src, ":")
			scale := 0.25
			if hasScale {
				v, err := strconv.ParseFloat(scaleStr, 64)
				if err != nil {
					return fmt.Errorf("bad scale in -preload entry %q: %v", part, err)
				}
				scale = v
			}
			ls = server.LoadSpec{Name: name, Dataset: dataset, Scale: scale}
		}
		if _, err := reg.Load(ls); err != nil {
			// A recovered durable graph already owns this name; keep it — it
			// carries the mutation history the fresh dataset would lose.
			var conflict *server.ConflictError
			if errors.As(err, &conflict) {
				continue
			}
			return err
		}
	}
	return nil
}
