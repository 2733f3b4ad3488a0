package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// TestHarnessTiny runs every workload shrunk to n10 instances, untraced and
// traced, and checks the harness rather than the library: every run passes
// its output checks, prints exactly the metrics BENCHMARK.json names with
// their units, and the traced sdp run attributes at least 95% of its wall
// time to core.self_s, sdp.ipm_s and legalize.s.
//
//	go -C e2ebench test ./...
func TestHarnessTiny(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	if len(bench.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness runs %d", len(bench.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bench.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the harness %q", i, bench.Workloads[i].Name, w.name)
		}
	}

	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			rep, err := runWorkload(w, options{seed: 1, seconds: 0.001, traced: traced, dir: t.TempDir(), tiny: true})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !rep.Correct {
				t.Errorf("%s traced=%v: output checks failed: %v", w.name, traced, rep.failures)
			}
			var out bytes.Buffer
			printReport(&out, w.name, rep)
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var got struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]metric
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
				t.Fatalf("%s traced=%v: last line is not the JSON result: %v", w.name, traced, err)
			}
			want := bench.EndToEnd
			if traced {
				want = bench.PerLayer
			}
			if len(got.Metrics) != len(want) {
				t.Errorf("%s traced=%v: printed %d metrics, BENCHMARK.json names %d", w.name, traced, len(got.Metrics), len(want))
			}
			for _, m := range want {
				if g, ok := got.Metrics[m.Name]; !ok || g.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s printed as %+v (present %v), want unit %q", w.name, traced, m.Name, g, ok, m.Unit)
				}
			}
			if got.Attempted < 1 || got.Failed != 0 || !got.Correct {
				t.Errorf("%s traced=%v: attempted %d, failed %d, correct %v", w.name, traced, got.Attempted, got.Failed, got.Correct)
			}
			if traced && w.name == "sdp-n30" {
				if f := got.Metrics["trace.attributed_frac"].Value; f < 0.95 {
					t.Errorf("core.self_s + sdp.ipm_s + legalize.s cover %.3f of the traced wall time, want >= 0.95", f)
				}
			}
		}
	}
}
