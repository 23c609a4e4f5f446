package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// writeBench fabricates a test2json benchmark record with the given
// name → ns/op results.
func writeBench(t *testing.T, path string, results map[string]float64) {
	t.Helper()
	var b strings.Builder
	b.WriteString(`{"Action":"start","Package":"resilientloc"}` + "\n")
	for name, ns := range results {
		// The Output field carries the raw benchmark line, tabs and all.
		b.WriteString(fmt.Sprintf(`{"Action":"output","Package":"resilientloc","Output":"%s-8 \t       2\t %g ns/op\n"}`,
			name, ns) + "\n")
	}
	b.WriteString(`{"Action":"pass","Package":"resilientloc"}` + "\n")
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestParseBenchStripsProcsSuffix(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	writeBench(t, path, map[string]float64{
		"BenchmarkFigSuiteSerial": 500000000,
		"BenchmarkCoordMerge":     1200.5,
	})
	got, err := parseBench(path)
	if err != nil {
		t.Fatal(err)
	}
	serial, merge := got.samples["BenchmarkFigSuiteSerial"], got.samples["BenchmarkCoordMerge"]
	if len(serial) != 1 || len(merge) != 1 || serial[0].ns != 500000000 || merge[0].ns != 1200.5 {
		t.Errorf("parsed %v", got.samples)
	}
	if serial[0].hasMem {
		t.Error("no -benchmem columns present, hasMem must be false")
	}
	if got.procs != 8 {
		t.Errorf("GOMAXPROCS = %d, want 8 from the -8 suffix", got.procs)
	}
}

// writeBenchMem fabricates a test2json record whose lines carry -benchmem
// columns: name → {ns/op, B/op, allocs/op}.
func writeBenchMem(t *testing.T, path string, results map[string][3]float64) {
	t.Helper()
	var b strings.Builder
	b.WriteString(`{"Action":"start","Package":"resilientloc"}` + "\n")
	for name, v := range results {
		b.WriteString(fmt.Sprintf(`{"Action":"output","Package":"resilientloc","Output":"%s-8 \t       2\t %g ns/op\t %g B/op\t %g allocs/op\n"}`,
			name, v[0], v[1], v[2]) + "\n")
	}
	b.WriteString(`{"Action":"pass","Package":"resilientloc"}` + "\n")
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestAllocIncreaseIsAnnotated(t *testing.T) {
	dir := t.TempDir()
	oldPath := filepath.Join(dir, "old.json")
	newPath := filepath.Join(dir, "new.json")
	writeBenchMem(t, oldPath, map[string][3]float64{
		"BenchmarkTrialDetect": {28000, 0, 0},
		"BenchmarkTrialLSS":    {31000000, 136968, 749},
	})
	writeBenchMem(t, newPath, map[string][3]float64{
		"BenchmarkTrialDetect": {28100, 164432, 10}, // ns/op fine, allocs reintroduced
		"BenchmarkTrialLSS":    {30900000, 136968, 749},
	})

	var out strings.Builder
	if err := realMain([]string{"-annotate", oldPath, newPath}, &out); err != nil {
		t.Fatalf("alloc increases must warn, not fail: %v", err)
	}
	s := out.String()
	if !strings.Contains(s, "::warning file=BENCH_engine.json::BenchmarkTrialDetect allocs/op rose 0 -> 10") {
		t.Errorf("missing allocs warning:\n%s", s)
	}
	if !strings.Contains(s, "ALLOCS") {
		t.Errorf("missing ALLOCS mark:\n%s", s)
	}
	if strings.Contains(s, "BenchmarkTrialLSS  ALLOCS") {
		t.Errorf("unchanged allocs flagged:\n%s", s)
	}
	if strings.Count(s, "::warning") != 1 {
		t.Errorf("want exactly one warning:\n%s", s)
	}

	// The allocs-only regression must not trip the ns/op hard gate.
	if err := realMain([]string{"-fail", oldPath, newPath}, io.Discard); err != nil {
		t.Errorf("-fail is ns/op-only; alloc increase should not error: %v", err)
	}
}

func TestDeltaReportsRegressionsAndChurn(t *testing.T) {
	dir := t.TempDir()
	oldPath := filepath.Join(dir, "old.json")
	newPath := filepath.Join(dir, "new.json")
	writeBench(t, oldPath, map[string]float64{
		"BenchmarkStable":    1000,
		"BenchmarkRegressed": 1000,
		"BenchmarkImproved":  1000,
		"BenchmarkGone":      1000,
	})
	writeBench(t, newPath, map[string]float64{
		"BenchmarkStable":    1040, // +4%: inside the threshold
		"BenchmarkRegressed": 1300, // +30%: regression
		"BenchmarkImproved":  700,
		"BenchmarkAdded":     50,
	})

	var out strings.Builder
	if err := realMain([]string{"-annotate", oldPath, newPath}, &out); err != nil {
		t.Fatalf("annotate mode must not fail the run: %v", err)
	}
	s := out.String()
	for _, want := range []string{
		"::warning file=BENCH_engine.json::BenchmarkRegressed regressed 30.0%",
		"REGRESSION",
		"(new)",
		"(gone)",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("output lacks %q:\n%s", want, s)
		}
	}
	if strings.Count(s, "::warning") != 1 {
		t.Errorf("want exactly one warning annotation (only the >10%% regression):\n%s", s)
	}
	if strings.Contains(s, "BenchmarkImproved") && strings.Contains(s, "BenchmarkImproved  REGRESSION") {
		t.Errorf("an improvement was flagged as a regression:\n%s", s)
	}

	// -fail turns the regression into a nonzero exit.
	if err := realMain([]string{"-fail", oldPath, newPath}, io.Discard); err == nil {
		t.Error("-fail with a 30% regression should error")
	}
	// A higher threshold absorbs it.
	if err := realMain([]string{"-fail", "-threshold", "50", oldPath, newPath}, io.Discard); err != nil {
		t.Errorf("-threshold 50 should absorb a 30%% regression: %v", err)
	}
}

func TestMissingBaselineIsNotAnError(t *testing.T) {
	dir := t.TempDir()
	newPath := filepath.Join(dir, "new.json")
	writeBench(t, newPath, map[string]float64{"BenchmarkX": 10})
	var out strings.Builder
	if err := realMain([]string{filepath.Join(dir, "absent.json"), newPath}, &out); err != nil {
		t.Fatalf("missing baseline must not error: %v", err)
	}
	if !strings.Contains(out.String(), "no baseline") {
		t.Errorf("output %q should note the missing baseline", out.String())
	}
}

// writeStream fabricates a record the way go test -json writes one: a cpu
// header, then each result split over two output events (the name before
// the run, the numbers after), with a custom metric ahead of the -benchmem
// columns. samples maps name → one {ns/op, allocs/op} pair per -count run.
func writeStream(t *testing.T, path, cpu string, procs int, samples map[string][][2]float64) {
	t.Helper()
	var b strings.Builder
	ev := func(test, output string) {
		line, err := json.Marshal(map[string]string{"Action": "output", "Package": "resilientloc", "Test": test, "Output": output})
		if err != nil {
			t.Fatal(err)
		}
		b.Write(line)
		b.WriteByte('\n')
	}
	ev("", "goos: linux\n")
	ev("", "cpu: "+cpu+"\n")
	names := make([]string, 0, len(samples))
	for name := range samples {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, v := range samples[name] {
			ev(name, fmt.Sprintf("%s-%d         \t", name, procs))
			ev(name, fmt.Sprintf("       6\t %g ns/op\t    2.549 avg_err_m\t  136968 B/op\t %g allocs/op\n", v[0], v[1]))
		}
	}
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestParseBenchReassemblesSplitResultLines(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	writeStream(t, path, "Some CPU @ 2.10GHz", 2, map[string][][2]float64{
		"BenchmarkTrialLSS": {{43752742, 749}, {45002793, 749}},
	})
	got, err := parseBench(path)
	if err != nil {
		t.Fatal(err)
	}
	lss := got.samples["BenchmarkTrialLSS"]
	if len(lss) != 2 || lss[0].ns != 43752742 || lss[1].ns != 45002793 {
		t.Fatalf("samples %v, want both -count runs in order", lss)
	}
	if !lss[0].hasMem || lss[0].allocs != 749 || lss[0].bytes != 136968 {
		t.Errorf("-benchmem columns after a custom metric lost: %+v", lss[0])
	}
	if got.cpu != "Some CPU @ 2.10GHz" || got.procs != 2 {
		t.Errorf("machine = %q, want the cpu header and GOMAXPROCS 2", got.machine())
	}
}

func TestMedianAndRangeOverlapDecideRegressions(t *testing.T) {
	dir := t.TempDir()
	oldPath := filepath.Join(dir, "old.json")
	newPath := filepath.Join(dir, "new.json")
	writeStream(t, oldPath, "Xeon", 2, map[string][][2]float64{
		// The last sample is an outlier: keeping it, as a last-sample
		// comparison would, reports a 50% speed-up of BenchmarkNoisy.
		"BenchmarkNoisy":     {{100000, 0}, {98000, 0}, {140000, 0}, {101000, 0}, {99000, 0}, {150000, 0}},
		"BenchmarkSlower":    {{100000, 0}, {98000, 0}, {102000, 0}, {101000, 0}, {99000, 0}, {100000, 0}},
		"BenchmarkOverlap":   {{100000, 5}, {90000, 5}, {130000, 5}, {101000, 5}, {95000, 5}, {100000, 5}},
		"BenchmarkAllocJump": {{100000, 5}, {100000, 5}, {100000, 6}, {100000, 5}, {100000, 5}, {100000, 5}},
	})
	writeStream(t, newPath, "Xeon", 2, map[string][][2]float64{
		"BenchmarkNoisy":     {{104000, 0}, {97000, 0}, {101000, 0}, {103000, 0}, {99000, 0}, {75000, 0}},
		"BenchmarkSlower":    {{125000, 0}, {120000, 0}, {119000, 0}, {122000, 0}, {121000, 0}, {126000, 0}},
		"BenchmarkOverlap":   {{125000, 6}, {120000, 5}, {119000, 5}, {122000, 5}, {121000, 5}, {126000, 5}},
		"BenchmarkAllocJump": {{100000, 7}, {100000, 7}, {100000, 7}, {100000, 8}, {100000, 7}, {100000, 7}},
	})
	var out strings.Builder
	if err := realMain([]string{"-annotate", oldPath, newPath}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if strings.Contains(s, "cross-machine") {
		t.Errorf("same machine labelled cross-machine:\n%s", s)
	}
	for _, want := range []string{
		"old: Xeon, GOMAXPROCS 2\nnew: Xeon, GOMAXPROCS 2\n",
		"::warning file=BENCH_engine.json::BenchmarkSlower regressed 21.5% (median 100µs -> 121.5µs",
		"::warning file=BENCH_engine.json::BenchmarkAllocJump allocs/op rose 5 -> 7",
		"(n=6/6)",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("output lacks %q:\n%s", want, s)
		}
	}
	// Medians: Noisy 100.5 -> 100µs (no change); Overlap +21% but its ranges
	// overlap, and so do its allocs/op.
	if strings.Count(s, "::warning") != 2 {
		t.Errorf("want exactly two warnings (Slower, AllocJump):\n%s", s)
	}
	for _, line := range strings.Split(s, "\n") {
		if strings.HasPrefix(line, "BenchmarkNoisy") && !strings.Contains(line, "-0.5%") {
			t.Errorf("noisy benchmark should compare medians: %q", line)
		}
		if strings.HasPrefix(line, "BenchmarkOverlap") && strings.Contains(line, "REGRESSION") {
			t.Errorf("overlapping ranges flagged: %q", line)
		}
	}
	if err := realMain([]string{"-fail", oldPath, newPath}, io.Discard); err == nil {
		t.Error("-fail with a separated 21% regression should error")
	}
}

func TestCrossMachineComparisonIsLabelled(t *testing.T) {
	dir := t.TempDir()
	oldPath := filepath.Join(dir, "old.json")
	newPath := filepath.Join(dir, "new.json")
	writeStream(t, oldPath, "Xeon", 2, map[string][][2]float64{"BenchmarkX": {{100, 0}}})
	writeStream(t, newPath, "Xeon", 8, map[string][][2]float64{"BenchmarkX": {{200, 0}}})
	var out strings.Builder
	if err := realMain([]string{"-annotate", oldPath, newPath}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{
		"old: Xeon, GOMAXPROCS 2\nnew: Xeon, GOMAXPROCS 8\n",
		"cross-machine comparison",
		"BenchmarkX regressed 100.0% (cross-machine)",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("output lacks %q:\n%s", want, s)
		}
	}
	err := realMain([]string{"-fail", oldPath, newPath}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "cross-machine") {
		t.Errorf("-fail error %v should name the cross-machine comparison", err)
	}
}
