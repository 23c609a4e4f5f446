package coord

import (
	"strings"
	"testing"
	"time"

	"resilientloc/internal/engine/spec"
)

// TestScoreboardNonTTY: on a non-terminal writer a coordinated job prints
// quarter-milestone counter lines while it runs and one summary row per
// worker that did anything when it is retired — never ANSI control
// sequences. Retiring twice prints the rows once, and with progress off
// every rendering step is a no-op.
func TestScoreboardNonTTY(t *testing.T) {
	job, err := spec.Resolve(spec.JobSpec{Kind: spec.KindScenario, ID: "multilat-town", Seed: 1, Trials: 8})
	if err != nil {
		t.Fatal(err)
	}
	// drive records the range lifecycle of a two-slot job: one worker wins
	// both ranges after being hedged once; the other never does anything.
	drive := func(c *coordinator) {
		c.mu.Lock()
		a, b := c.newSlotLocked(spec.Range{Lo: 0, Hi: 4}), c.newSlotLocked(spec.Range{Lo: 4, Hi: 8})
		c.mu.Unlock()
		c.progress(a, 2)
		c.complete(a, &spec.Value{}, "http://w1", 320*time.Millisecond)
		c.mu.Lock()
		c.tallyLocked("http://w1").hedges++
		c.renderLocked()
		c.mu.Unlock()
		c.complete(b, &spec.Value{}, "http://w1", 320*time.Millisecond)
		c.prog.Done(c.job.Spec.ID)
		c.prog.Done(c.job.Spec.ID) // idempotent
	}

	var buf strings.Builder
	c, err := newCoordinator(job, Options{Workers: []string{"http://w1", "http://w2"}, Progress: &buf})
	if err != nil {
		t.Fatal(err)
	}
	drive(c)
	out := buf.String()
	if strings.Contains(out, "\x1b[") {
		t.Errorf("non-TTY progress emitted ANSI control sequences:\n%q", out)
	}
	want := "multilat-town                   2/8 trials\n" +
		"multilat-town                   4/8 trials\n" +
		"multilat-town                   8/8 trials\n" +
		"  worker http://w1: ranges=2 trials=8 trials/s=12.5 retries=0 hedges=1 steals=0 reused=0\n"
	if out != want {
		t.Errorf("non-TTY progress\n got %q\nwant %q", out, want)
	}

	// Progress off: the coordinator holds a nil renderer.
	off, err := newCoordinator(job, Options{Workers: []string{"http://w1"}})
	if err != nil {
		t.Fatal(err)
	}
	if off.prog != nil {
		t.Fatal("progress off built a renderer")
	}
	drive(off)
}

// TestWarningsRouteThroughProgress: warnings sharing the progress writer
// go through the renderer, which prints them above its live block; other
// warning writers are used as given.
func TestWarningsRouteThroughProgress(t *testing.T) {
	job, err := spec.Resolve(spec.JobSpec{Kind: spec.KindScenario, ID: "multilat-town", Seed: 1, Trials: 8})
	if err != nil {
		t.Fatal(err)
	}
	var out, other strings.Builder
	c, err := newCoordinator(job, Options{Workers: []string{"http://w1"}, Progress: &out, Warnings: &out})
	if err != nil {
		t.Fatal(err)
	}
	if c.warn != c.prog {
		t.Errorf("warnings on the progress writer bypass the renderer")
	}
	c, err = newCoordinator(job, Options{Workers: []string{"http://w1"}, Progress: &out, Warnings: &other})
	if err != nil {
		t.Fatal(err)
	}
	if c.warn != &other {
		t.Errorf("warnings on their own writer were rerouted")
	}
}
