// Command benchdelta compares two benchmark records in the BENCH_engine.json
// format (go test -bench -json, i.e. test2json event streams; plain
// go test -bench output works too) and reports the per-benchmark ns/op
// delta — the CI step that turns the uploaded benchmark artifact into an
// actual regression signal instead of a write-only file.
//
// Records are meant to hold several samples per benchmark (-count 6 in CI).
// Each side is summarized by its median, and a change counts only when the
// two sample ranges separate: a regression is a median ns/op increase
// beyond -threshold percent whose slowest old sample is still faster than
// the fastest new one. With one sample per side this reduces to comparing
// the two samples. When the records carry -benchmem columns, allocs/op is
// compared the same way, and any separated increase is annotated: a
// benchmark that was allocation-free picking up a steady-state per-trial
// allocation is a regression the ns/op threshold can easily miss.
//
// Usage:
//
//	benchdelta [-threshold 10] [-annotate] [-fail] old.json new.json
//
// The report opens with each record's CPU model and GOMAXPROCS, and labels
// the comparison cross-machine when they differ. Benchmarks present in both
// files print as "old -> new (+delta%)" with their sample counts; ones
// present in only one file are listed as new or gone. -annotate emits a
// GitHub Actions ::warning:: line per regression (so the run is annotated
// without failing), and -fail exits nonzero on ns/op regressions, for use
// as a hard gate. A missing old file is not an error — the first run of a
// pipeline has no baseline — it prints a note and exits zero.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() {
	if err := realMain(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchdelta:", err)
		os.Exit(1)
	}
}

// benchName matches the head of a benchmark result line: the name, the
// optional -GOMAXPROCS suffix, and the iteration count.
var benchName = regexp.MustCompile(`^(Benchmark\S+?)(?:-(\d+))?\s+\d+\s`)

// benchStat is one sample of one benchmark. hasMem is set when the line
// carried -benchmem columns.
type benchStat struct {
	ns     float64
	bytes  float64
	allocs float64
	hasMem bool
}

// record is one parsed benchmark file: every sample per benchmark name, in
// file order, and the machine it was recorded on.
type record struct {
	samples map[string][]benchStat
	cpu     string // the "cpu:" header go test prints, or "" if absent
	procs   int    // GOMAXPROCS, from the benchmark names' -N suffix
}

// machine describes where a record was taken, for the report header.
func (r record) machine() string {
	cpu := r.cpu
	if cpu == "" {
		cpu = "unknown CPU"
	}
	return fmt.Sprintf("%s, GOMAXPROCS %d", cpu, r.procs)
}

// parseBench reads a benchmark record. test2json splits a result line over
// several output events (the name is printed before the run, the numbers
// after), so each test's output is reassembled into lines before parsing.
// A line that is not a JSON event is taken as raw go test output.
func parseBench(path string) (record, error) {
	rec := record{samples: make(map[string][]benchStat), procs: 1}
	f, err := os.Open(path)
	if err != nil {
		return rec, err
	}
	defer f.Close()
	pending := make(map[string]string) // test name → partial output line
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		var ev struct {
			Action string `json:"Action"`
			Test   string `json:"Test"`
			Output string `json:"Output"`
		}
		if json.Unmarshal(sc.Bytes(), &ev) != nil {
			rec.addLine(sc.Text())
			continue
		}
		if ev.Action != "output" {
			continue
		}
		buf := pending[ev.Test] + ev.Output
		for {
			i := strings.IndexByte(buf, '\n')
			if i < 0 {
				break
			}
			rec.addLine(buf[:i])
			buf = buf[i+1:]
		}
		pending[ev.Test] = buf
	}
	return rec, sc.Err()
}

// addLine records one line of go test output: the cpu header or a
// benchmark result. Other lines are ignored.
func (r *record) addLine(line string) {
	if cpu, ok := strings.CutPrefix(line, "cpu: "); ok {
		r.cpu = strings.TrimSpace(cpu)
		return
	}
	m := benchName.FindStringSubmatchIndex(line)
	if m == nil {
		return
	}
	name := line[m[2]:m[3]]
	if m[4] >= 0 {
		r.procs, _ = strconv.Atoi(line[m[4]:m[5]])
	}
	// The rest is "value unit" pairs: ns/op, custom metrics, B/op, allocs/op.
	var st benchStat
	var hasNs, hasBytes, hasAllocs bool
	fields := strings.Fields(line[m[1]:])
	for k := 0; k+1 < len(fields); k += 2 {
		v, err := strconv.ParseFloat(fields[k], 64)
		if err != nil {
			return
		}
		switch fields[k+1] {
		case "ns/op":
			st.ns, hasNs = v, true
		case "B/op":
			st.bytes, hasBytes = v, true
		case "allocs/op":
			st.allocs, hasAllocs = v, true
		}
	}
	if !hasNs {
		return
	}
	st.hasMem = hasBytes && hasAllocs
	r.samples[name] = append(r.samples[name], st)
}

// summary is one side of a comparison: the median and range of a field
// over a benchmark's samples.
type summary struct {
	med, lo, hi float64
	n           int
}

func summarize(samples []benchStat, field func(benchStat) float64) summary {
	vs := make([]float64, len(samples))
	for i, s := range samples {
		vs[i] = field(s)
	}
	sort.Float64s(vs)
	n := len(vs)
	med := vs[n/2]
	if n%2 == 0 {
		med = (vs[n/2-1] + vs[n/2]) / 2
	}
	return summary{med: med, lo: vs[0], hi: vs[n-1], n: n}
}

// rose reports whether c is above o beyond doubt: its whole sample range
// lies above o's.
func rose(o, c summary) bool { return c.lo > o.hi }

func allMem(samples []benchStat) bool {
	for _, s := range samples {
		if !s.hasMem {
			return false
		}
	}
	return true
}

func realMain(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("benchdelta", flag.ContinueOnError)
	threshold := fs.Float64("threshold", 10, "median ns/op increase (percent) that counts as a regression when the sample ranges separate")
	annotate := fs.Bool("annotate", false, "emit a GitHub Actions ::warning:: line per regression")
	fail := fs.Bool("fail", false, "exit nonzero when any benchmark regresses beyond the threshold")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: benchdelta [-threshold PCT] [-annotate] [-fail] old.json new.json")
	}
	oldPath, newPath := fs.Arg(0), fs.Arg(1)
	old, err := parseBench(oldPath)
	if os.IsNotExist(err) {
		fmt.Fprintf(out, "benchdelta: no baseline at %s; nothing to compare\n", oldPath)
		return nil
	}
	if err != nil {
		return err
	}
	cur, err := parseBench(newPath)
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "old: %s\nnew: %s\n", old.machine(), cur.machine())
	where := ""
	if old.machine() != cur.machine() {
		fmt.Fprintln(out, "cross-machine comparison: deltas mix code and hardware changes")
		where = " (cross-machine)"
	}

	names := make([]string, 0, len(old.samples)+len(cur.samples))
	for n := range old.samples {
		names = append(names, n)
	}
	for n := range cur.samples {
		if _, ok := old.samples[n]; !ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)

	ns := func(s benchStat) float64 { return s.ns }
	allocs := func(s benchStat) float64 { return s.allocs }
	bytes := func(s benchStat) float64 { return s.bytes }
	regressions := 0
	for _, n := range names {
		oldS, hasOld := old.samples[n]
		curS, hasCur := cur.samples[n]
		switch {
		case !hasCur:
			fmt.Fprintf(out, "%-44s %12s -> %12s\n", n, fmtNs(summarize(oldS, ns).med), "(gone)")
			continue
		case !hasOld:
			fmt.Fprintf(out, "%-44s %12s -> %12s\n", n, "(new)", fmtNs(summarize(curS, ns).med))
			continue
		}
		o, c := summarize(oldS, ns), summarize(curS, ns)
		delta := (c.med - o.med) / o.med * 100
		mark := ""
		if delta > *threshold && rose(o, c) {
			regressions++
			mark = "  REGRESSION"
			if *annotate {
				fmt.Fprintf(out, "::warning file=BENCH_engine.json::%s regressed %.1f%%%s (median %s -> %s, ranges [%s, %s] -> [%s, %s], threshold %.0f%%)\n",
					n, delta, where, fmtNs(o.med), fmtNs(c.med), fmtNs(o.lo), fmtNs(o.hi), fmtNs(c.lo), fmtNs(c.hi), *threshold)
			}
		}
		var oa, ca, ob, cb summary
		mem := allMem(oldS) && allMem(curS)
		if mem {
			oa, ca = summarize(oldS, allocs), summarize(curS, allocs)
			ob, cb = summarize(oldS, bytes), summarize(curS, bytes)
			if rose(oa, ca) {
				// New steady-state allocations are flagged regardless of the
				// ns/op threshold: a single reintroduced per-trial allocation
				// barely moves ns/op but silently re-engages the GC.
				mark += "  ALLOCS"
				if *annotate {
					fmt.Fprintf(out, "::warning file=BENCH_engine.json::%s allocs/op rose %g -> %g%s (B/op %g -> %g)\n",
						n, oa.med, ca.med, where, ob.med, cb.med)
				}
			}
		}
		fmt.Fprintf(out, "%-44s %12s -> %12s  %+6.1f%%  (n=%d/%d)%s\n", n, fmtNs(o.med), fmtNs(c.med), delta, o.n, c.n, mark)
		if mem && (ca.med != oa.med || cb.med != ob.med) {
			fmt.Fprintf(out, "%-44s %12g -> %12g  allocs/op (%g -> %g B/op)\n", "", oa.med, ca.med, ob.med, cb.med)
		}
	}
	if regressions > 0 && *fail {
		return fmt.Errorf("%d benchmark(s) regressed beyond %.0f%%%s", regressions, *threshold, where)
	}
	return nil
}

// fmtNs renders a ns/op value as a human duration (sub-ns values keep the
// raw number — durations round them to 0).
func fmtNs(ns float64) string {
	if ns < 1 {
		return fmt.Sprintf("%gns", ns)
	}
	return time.Duration(ns).Round(time.Microsecond / 10).String()
}
