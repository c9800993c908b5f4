package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
)

// compareFiles is the repeatability tool: for every workload × end-to-end
// metric of two result files it prints both values, their relative
// difference and the metric's bound, and for equal seeds it demands that the
// exact-repeat counts are identical. The exit code is 1 when any pair
// disagrees beyond its bound.
func compareFiles(pathA, pathB string, w io.Writer) int {
	a, errA := readDocument(pathA)
	b, errB := readDocument(pathB)
	if err := errors.Join(errA, errB); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if !compareDocuments(a, b, w) {
		return 1
	}
	return 0
}

func readDocument(path string) (*document, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc document
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &doc, nil
}

func compareDocuments(a, b *document, w io.Writer) bool {
	ok := true
	fmt.Fprintf(w, "%-8s %-24s %14s %14s %9s %7s\n", "workload", "metric", "A", "B", "rel.diff", "bound")
	for _, wa := range a.Workloads {
		var wb *wlResult
		for _, cand := range b.Workloads {
			if cand.Name == wa.Name {
				wb = cand
			}
		}
		if wb == nil {
			fmt.Fprintf(w, "%-8s missing from B\n", wa.Name)
			ok = false
			continue
		}
		for _, def := range endToEnd {
			ma, inA := wa.EndToEnd[def.Name]
			mb, inB := wb.EndToEnd[def.Name]
			if !inA || !inB {
				continue
			}
			// Both files come from the same commit, so neither side is "the
			// parent": the difference is taken against the smaller value.
			rel := math.Abs(mb.Value-ma.Value) / math.Min(math.Abs(ma.Value), math.Abs(mb.Value))
			verdict := ""
			if !(rel <= def.Bound) {
				verdict = "  BEYOND BOUND"
				ok = false
			}
			fmt.Fprintf(w, "%-8s %-24s %14.6g %14.6g %8.2f%% %6.0f%%%s\n",
				wa.Name, def.Name, ma.Value, mb.Value, 100*rel, 100*def.Bound, verdict)
		}
		if a.Seed != b.Seed {
			continue
		}
		for _, name := range exactRepeat {
			ma, inA := wa.PerLayer[name]
			mb, inB := wb.PerLayer[name]
			if !inA || !inB {
				continue
			}
			verdict := "identical"
			if ma.Value != mb.Value {
				verdict = "MUST REPEAT EXACTLY"
				ok = false
			}
			fmt.Fprintf(w, "%-8s %-24s %14.6g %14.6g %s\n", wa.Name, name, ma.Value, mb.Value, verdict)
		}
	}
	return ok
}
