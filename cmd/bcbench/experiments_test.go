package main

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

func tinyConfig(buf *bytes.Buffer) config {
	return config{
		scale:    0.05,
		workers:  1,
		datasets: map[string]bool{"email-enron": true, "usa-roadny": true},
		out:      buf,
	}
}

func countDataRows(out string) int {
	rows := 0
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "email-enron") || strings.HasPrefix(line, "usa-roadny") {
			rows++
		}
	}
	return rows
}

func TestTable1Renders(t *testing.T) {
	var buf bytes.Buffer
	if err := table1(tinyConfig(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Table 1") || countDataRows(out) != 2 {
		t.Fatalf("unexpected output:\n%s", out)
	}
	// Paper sizes present.
	if !strings.Contains(out, "36692") {
		t.Fatal("paper vertex count missing")
	}
}

func TestTable4Renders(t *testing.T) {
	var buf bytes.Buffer
	if err := table4(tinyConfig(&buf)); err != nil {
		t.Fatal(err)
	}
	if countDataRows(buf.String()) != 2 {
		t.Fatalf("unexpected output:\n%s", buf.String())
	}
}

func TestFigure2Renders(t *testing.T) {
	var buf bytes.Buffer
	if err := figure2(tinyConfig(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "human-disease") {
		t.Fatal("human disease row missing")
	}
	if countDataRows(out) != 2 {
		t.Fatalf("unexpected output:\n%s", out)
	}
}

func TestFigure7Renders(t *testing.T) {
	var buf bytes.Buffer
	if err := figure7(tinyConfig(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "effective") || countDataRows(out) != 2 {
		t.Fatalf("unexpected output:\n%s", out)
	}
	// Undirected datasets must be analyzed exactly.
	if !strings.Contains(out, "exact") {
		t.Fatal("exact method missing")
	}
}

func TestTimingsRendersAllThree(t *testing.T) {
	var buf bytes.Buffer
	c := tinyConfig(&buf)
	c.algos = map[string]bool{"apgre": true, "succs": true}
	if err := timings(c, map[string]bool{"t2": true, "t3": true, "f6": true}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Table 2", "Table 3", "Figure 6", "apgre", "succs"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in output:\n%s", want, out)
		}
	}
	if strings.Contains(out, "preds") {
		t.Fatal("algo filter leaked preds into the table")
	}
}

func TestFigure8Renders(t *testing.T) {
	var buf bytes.Buffer
	c := tinyConfig(&buf)
	c.datasets = map[string]bool{"usa-roadny": true}
	if err := figure8(c); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "partition") {
		t.Fatalf("unexpected output:\n%s", buf.String())
	}
}

func TestSplitCSV(t *testing.T) {
	if splitCSV("") != nil {
		t.Fatal("empty string should give nil")
	}
	m := splitCSV("a, b ,c,,")
	if len(m) != 3 || !m["a"] || !m["b"] || !m["c"] {
		t.Fatalf("splitCSV = %v", m)
	}
}

func TestDatasetFilter(t *testing.T) {
	c := config{datasets: map[string]bool{"usa-roadny": true}}
	sel := c.selected()
	if len(sel) != 1 || sel[0].Name != "usa-roadny" {
		t.Fatalf("selected = %v", sel)
	}
	c2 := config{}
	if len(c2.selected()) != 12 {
		t.Fatal("nil filter should select all")
	}
}

func TestApproxExperimentRenders(t *testing.T) {
	var buf bytes.Buffer
	c := tinyConfig(&buf)
	if err := approxExperiment(c); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "error vs speedup") || countDataRows(out) < 4 {
		t.Fatalf("unexpected output:\n%s", out)
	}
	// Per dataset: one exact baseline row (frac 1.00) plus at least one
	// sampled row whose pivots and kendall-tau columns are filled in.
	sampled := map[string]int{}
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) != 8 || !c.datasets[f[0]] || f[2] == "1.00" {
			continue
		}
		pivots, err := strconv.Atoi(f[1])
		if err != nil || pivots <= 0 {
			t.Fatalf("sampled row without a pivot count: %q", line)
		}
		tau, err := strconv.ParseFloat(f[7], 64)
		if err != nil || tau == 0 {
			t.Fatalf("sampled row without a kendall tau: %q", line)
		}
		sampled[f[0]]++
	}
	if len(sampled) != 2 {
		t.Fatalf("want sampled rows for both datasets, got %v in:\n%s", sampled, out)
	}
}
