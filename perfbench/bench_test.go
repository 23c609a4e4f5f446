package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

// manifest is BENCHMARK.json, the benchmark's declaration to its runner.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return m
}

// TestManifestMatchesCode keeps BENCHMARK.json and the metric and workload
// tables in the code in step: same names, units, directions and reasons.
func TestManifestMatchesCode(t *testing.T) {
	m := loadManifest(t)
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(m.Workloads), len(workloads))
	}
	for i, w := range m.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: manifest %q (%q), code %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	if len(m.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the code %d", len(m.EndToEnd), len(endToEnd))
	}
	for i, e := range m.EndToEnd {
		d := endToEnd[i]
		if e.Name != d.name || e.Unit != d.unit || e.Better != d.better {
			t.Errorf("end-to-end metric %d: manifest %+v, code %s %s %s", i, e, d.name, d.unit, d.better)
		}
		if e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", e.Name, e.Bound)
		}
	}
	if len(m.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the code %d", len(m.PerLayer), len(perLayer))
	}
	for i, p := range m.PerLayer {
		d := perLayer[i]
		if p.Name != d.name || p.Unit != d.unit || p.Better != d.better {
			t.Errorf("per-layer metric %d: manifest %+v, code %s %s %s", i, p, d.name, d.unit, d.better)
		}
	}
}

// TestWorkloadsTiny runs every workload at tiny size, untraced and traced,
// and checks the correctness gate passes and the result line names exactly
// the metrics BENCHMARK.json declares, with their units.
func TestWorkloadsTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	m := loadManifest(t)
	want := map[int]map[string]string{0: {}, 1: {}}
	for _, e := range m.EndToEnd {
		want[0][e.Name] = e.Unit
	}
	for _, p := range m.PerLayer {
		want[1][p.Name] = p.Unit
	}
	for _, w := range m.Workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.Name+"/trace"+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				args := []string{"-root", "..", "--workload", w.Name, "--seed", "5", "--seconds", "1", "--trace", trace, "--tiny"}
				if code := realMain(args, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d: %s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v\n%s", err, stdout.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correctness gate: %+v\n%s", res, stdout.String())
				}
				names := want[map[string]int{"0": 0, "1": 1}[trace]]
				var got []string
				for name, v := range res.Metrics {
					got = append(got, name)
					if unit, ok := names[name]; !ok || unit != v.Unit {
						t.Errorf("metric %s (%s) not declared with that unit in BENCHMARK.json", name, v.Unit)
					}
				}
				if len(got) != len(names) {
					sort.Strings(got)
					t.Errorf("printed %d metrics, BENCHMARK.json declares %d: %v", len(got), len(names), got)
				}
			})
		}
	}
}

// TestUnknownWorkload checks a bad invocation fails without a result line.
func TestUnknownWorkload(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := realMain([]string{"--workload", "nope"}, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
		t.Fatalf("exit %d, stdout %q", code, stdout.String())
	}
}
