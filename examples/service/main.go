// BC as a service: drive the bcd daemon end-to-end, in process. A social
// graph is generated and saved to disk, the server loads it asynchronously
// through its bounded worker pool, and then the example does what a
// monitoring client would do — query top-K centrality, mutate edges and
// watch whether the incremental engine absorbed each change locally or had
// to rebuild the decomposition, pull the articulation census, and scrape the
// Prometheus metrics.
//
//	go run ./examples/service
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro"
	"repro/internal/server"
)

func main() {
	// A graph worth serving: community-structured, articulation-rich.
	g := repro.GenerateSocial(repro.SocialParams{
		N: 2000, AvgDeg: 5, Communities: 20,
		TopShare: 0.4, LeafFrac: 0.3, Seed: 7,
	})
	dir, err := os.MkdirTemp("", "bcd-example")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "social.bin")
	if err := repro.SaveGraph(path, "bin", g); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("generated %v, saved to %s\n", g, path)

	// The daemon, in process: the same handler tree `go run ./cmd/bcd` binds
	// to a port, here mounted on an httptest listener.
	reg := server.NewRegistry(server.Config{Workers: 2})
	defer reg.Close()
	ts := httptest.NewServer(server.New(reg, log.New(io.Discard, "", 0)))
	defer ts.Close()

	// Load is asynchronous: POST answers 202 and the entry is polled.
	post(ts.URL+"/v1/graphs", map[string]any{"name": "social", "path": path})
	var info struct {
		State       string  `json:"state"`
		Verts       int     `json:"verts"`
		Edges       int64   `json:"edges"`
		BuildMs     float64 `json:"build_ms"`
		Error       string  `json:"error"`
		LocalUpd    int     `json:"local_updates"`
		FullRebuild int     `json:"full_rebuilds"`
	}
	for {
		get(ts.URL+"/v1/graphs/social", &info)
		if info.State == "failed" {
			log.Fatalf("load failed: %s", info.Error)
		}
		if info.State == "ready" {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	fmt.Printf("loaded: %d vertices, %d edges, decomposition + BC in %.0f ms\n\n",
		info.Verts, info.Edges, info.BuildMs)

	// Who brokers this network?
	topK := func(banner string) {
		var bc struct {
			Top []struct {
				Vertex int32   `json:"vertex"`
				BC     float64 `json:"bc"`
			} `json:"top"`
		}
		get(ts.URL+"/v1/graphs/social/bc?top=5", &bc)
		fmt.Println(banner)
		for i, e := range bc.Top {
			fmt.Printf("  %d. vertex %-5d bc=%.0f\n", i+1, e.Vertex, e.BC)
		}
	}
	topK("top-5 betweenness:")

	// Mutate: each response reports whether the edge lay inside one
	// sub-graph ("local") or joined two ("rebuild"); either way only the
	// sub-graphs the edit changed are swept again.
	fmt.Println("\nedge stream:")
	for _, e := range [][2]int{{11, 17}, {100, 1900}, {42, 1337}} {
		var mut struct {
			Result string  `json:"result"`
			TookMs float64 `json:"took_ms"`
		}
		postInto(ts.URL+"/v1/graphs/social/edges",
			map[string]any{"from": e[0], "to": e[1]}, &mut)
		fmt.Printf("  insert (%d,%d): %-8s %.1f ms\n", e[0], e[1], mut.Result, mut.TookMs)
	}
	get(ts.URL+"/v1/graphs/social", &info)
	fmt.Printf("absorbed %d locally, %d via rebuild\n\n", info.LocalUpd, info.FullRebuild)
	topK("top-5 after mutations:")

	// The articulation census — same document `bcstats -json` prints.
	var census struct {
		ArticulationPoints int `json:"articulation_points"`
		Decomposition      struct {
			Subgraphs int   `json:"subgraphs"`
			Roots     int64 `json:"roots"`
		} `json:"decomposition"`
		Redundancy struct {
			Total float64 `json:"total"`
		} `json:"redundancy"`
	}
	get(ts.URL+"/v1/graphs/social/stats", &census)
	fmt.Printf("\ncensus: %d articulation points, %d sub-graphs, %d roots of %d, total redundancy %.0f%%\n",
		census.ArticulationPoints, census.Decomposition.Subgraphs,
		census.Decomposition.Roots, info.Verts, 100*census.Redundancy.Total)

	// And the operational view: a few lines of the Prometheus scrape.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		log.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	fmt.Println("\nmetrics excerpt:")
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "bcd_incremental_updates_total") ||
			strings.HasPrefix(line, "bcd_graphs_loaded") ||
			strings.HasPrefix(line, "bcd_load_jobs_total") {
			fmt.Println("  " + line)
		}
	}
}

func get(url string, out any) {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	decode(resp, url, out)
}

func post(url string, body any) { postInto(url, body, nil) }

func postInto(url string, body, out any) {
	data, err := json.Marshal(body)
	if err != nil {
		log.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		log.Fatal(err)
	}
	decode(resp, url, out)
}

func decode(resp *http.Response, url string, out any) {
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		log.Fatal(err)
	}
	if resp.StatusCode >= 400 {
		log.Fatalf("%s: HTTP %d: %s", url, resp.StatusCode, raw)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			log.Fatalf("%s: %v", url, err)
		}
	}
}
