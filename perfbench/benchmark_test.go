package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the metric
// tables the program reports from in step.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	for _, c := range []struct {
		kind  string
		json  []struct{ Name, Unit, Better string }
		specs []metricSpec
	}{{"end-to-end", bj.EndToEnd, endToEnd}, {"per-layer", bj.PerLayer, perLayer}} {
		if len(c.json) != len(c.specs) {
			t.Errorf("BENCHMARK.json names %d %s metrics, the program %d", len(c.json), c.kind, len(c.specs))
			continue
		}
		for i, m := range c.json {
			if p := c.specs[i]; m.Name != p.name || m.Unit != p.unit || m.Better != p.better {
				t.Errorf("%s metric %d: BENCHMARK.json %v, program %v", c.kind, i, m, p)
			}
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6}} {
		if got := quantile(xs, c.q); got < c.want-1e-9 || got > c.want+1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 4 {
		t.Error("quantile sorted its input in place")
	}
}

func TestSelfTime(t *testing.T) {
	tr := newTracer()
	root := tr.start("root", -1)
	child := tr.start("child", root)
	tr.end(child)
	tr.end(root)
	sum := tr.summarize()
	if sum["root"].self != sum["root"].total-sum["child"].total {
		t.Errorf("root self %v, want total %v minus child %v", sum["root"].self, sum["root"].total, sum["child"].total)
	}
	if sum["child"].self != sum["child"].total {
		t.Errorf("leaf self %v differs from its total %v", sum["child"].self, sum["child"].total)
	}
}
