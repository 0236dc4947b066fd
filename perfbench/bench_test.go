package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"testing"

	lmbench "repro"
)

func TestMain(m *testing.M) {
	lmbench.MaybeChild() // fleet workers re-exec the test binary
	maybeSetupChild()
	os.Exit(m.Run())
}

// spec is the part of BENCHMARK.json the benchmark's code must agree
// with.
type spec struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func TestSpecMatchesDefinitions(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(s.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if s.Workloads[i].Name != w.name || s.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %q (%q), code %q (%q)", i, s.Workloads[i].Name, s.Workloads[i].Why, w.name, w.why)
		}
	}
	for _, c := range []struct {
		what string
		json []struct{ Name, Unit, Better string }
		defs []metricDef
	}{{"end_to_end", s.EndToEnd, endToEnd}, {"per_layer", s.PerLayer, perLayer}} {
		if len(c.json) != len(c.defs) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the code %d", c.what, len(c.json), len(c.defs))
			continue
		}
		for i, d := range c.defs {
			if j := c.json[i]; j.Name != d.name || j.Unit != d.unit || j.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json %+v, code %s %s %s", c.what, i, j, d.name, d.unit, d.better)
			}
		}
	}
}

// TestEveryWorkloadEmitsEveryMetric runs a minimal-size pass of every
// workload, untraced and traced, and checks that each emits every
// metric BENCHMARK.json names, finite and tagged with its unit — and,
// untraced, nonzero.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			name := w.name + "/untraced"
			defs := endToEnd
			if trace {
				name, defs = w.name+"/traced", perLayer
			}
			t.Run(name, func(t *testing.T) {
				cfg := config{seed: 3, seconds: 1, trace: trace, small: true, dir: t.TempDir()}
				out, err := runWorkload(context.Background(), w, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if out.attempted < 1 {
					t.Errorf("attempted %d", out.attempted)
				}
				if len(out.metrics) != len(defs) {
					t.Errorf("%d metrics emitted, want %d", len(out.metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := out.metrics[d.name]
					switch {
					case !ok:
						t.Errorf("%s not emitted", d.name)
					case m.Unit != d.unit:
						t.Errorf("%s tagged %q, want %q", d.name, m.Unit, d.unit)
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
						t.Errorf("%s = %v", d.name, m.Value)
					case !trace && m.Value == 0:
						t.Errorf("%s is zero", d.name)
					}
				}
			})
		}
	}
}
