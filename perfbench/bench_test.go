package main

import (
	"encoding/json"
	"os"
	"testing"
)

// spec is the part of ../BENCHMARK.json the smoke test checks against.
type spec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	Workload []struct{ Name string }       `json:"workloads"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// reportedOnly lists the end-to-end metrics printed but not gated, with
// the workloads they apply to (nil: all).
var reportedOnly = map[string][]string{
	"failed_frac":    nil,
	"session_p99_ms": nil,
	"honest_p99_ms":  nil,
	"peak_rss_mb":    nil,
	"reject_p50_ms":  {"under-attack", "stream-heal"},
	"detect_p50_ms":  {"stream-heal"},
	"detect_p90_ms":  {"stream-heal"},
}

// TestSmoke runs a few sessions of every workload, end to end and traced,
// and checks the correctness gate and that every metric is emitted with
// its unit.
func TestSmoke(t *testing.T) {
	s := loadSpec(t)
	if len(s.Workload) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(s.Workload), len(workloads))
	}
	for _, ws := range s.Workload {
		w, ok := workloadByName(ws.Name)
		if !ok {
			t.Fatalf("workload %q is not defined", ws.Name)
		}
		t.Run(w.name, func(t *testing.T) {
			opt := options{workload: w, seed: 7, workdir: t.TempDir(), smoke: true}
			res, err := runE2E(opt)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Attempted == 0 {
				t.Fatalf("e2e: correct=%v attempted=%d", res.Correct, res.Attempted)
			}
			checkMetrics(t, "e2e", res.Metrics, s.EndToEnd)
			for name, only := range reportedOnly {
				applies := only == nil
				for _, o := range only {
					applies = applies || o == w.name
				}
				if m, ok := res.extra[name]; ok != applies || (ok && m.Unit == "") {
					t.Errorf("e2e: reported metric %s present=%v unit=%q, applies=%v", name, ok, m.Unit, applies)
				}
			}

			res, err = runTraced(opt)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Fatal("traced: correctness gate failed")
			}
			checkMetrics(t, "traced", res.Metrics, s.PerLayer)
		})
	}
}

// checkMetrics requires exactly the listed metrics, each with its unit.
func checkMetrics(t *testing.T, mode string, got map[string]metric, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics emitted, BENCHMARK.json lists %d", mode, len(got), len(want))
	}
	for _, m := range want {
		g, ok := got[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", mode, m.Name)
		case g.Unit != m.Unit:
			t.Errorf("%s: metric %s has unit %q, want %q", mode, m.Name, g.Unit, m.Unit)
		}
	}
}

// TestPlanner pins the seeded plan's shape: same seed, same sessions; one
// compromised session per period; honest sessions cycle through the apps.
func TestPlanner(t *testing.T) {
	names := []string{"a", "b", "c", "d", "e"}
	p, q := newPlanner(3, names, 4, 10), newPlanner(3, names, 4, 10)
	counts := map[string]int{}
	for i := 0; i < 1000; i++ {
		x, y := p.at(i), q.at(i)
		if x.app != y.app || x.device != y.device || (x.hijack == nil) != (y.hijack == nil) {
			t.Fatalf("session %d differs between two planners of one seed", i)
		}
		if x.hijack != nil {
			counts["hijack"]++
			if x.hijack.pos < 0 || x.hijack.pos >= 1 || x.hijack.slice < 0 || x.hijack.slice >= 1 {
				t.Fatalf("session %d: hijack position %v out of [0,1)", i, *x.hijack)
			}
			continue
		}
		counts[x.app]++
	}
	if counts["hijack"] != 100 {
		t.Errorf("%d compromised sessions in 1000, want 100", counts["hijack"])
	}
	for _, n := range names {
		if c := counts[n]; c != 180 {
			t.Errorf("app %s: %d honest sessions, want 180", n, c)
		}
	}
}
