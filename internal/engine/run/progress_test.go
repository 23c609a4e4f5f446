package run

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// newTTYProgress builds a renderer forced onto the terminal path so the
// status-block rendering is testable against a plain buffer.
func newTTYProgress(w *bytes.Buffer) *Progress {
	p := NewProgress(w)
	p.tty = true
	return p
}

func TestTTYStatusBlockRendersConcurrentCampaigns(t *testing.T) {
	var buf bytes.Buffer
	p := newTTYProgress(&buf)
	a, b := p.callback("alpha", "alpha"), p.callback("beta", "beta")

	a(1, 4)
	first := buf.String()
	if strings.Contains(first, "\x1b[") {
		t.Errorf("first draw should not move the cursor: %q", first)
	}
	if !strings.Contains(first, "alpha") || !strings.Contains(first, "1/4 trials") {
		t.Errorf("first draw missing the campaign line: %q", first)
	}

	b(1, 2) // both campaigns now own a line in the block
	if got := buf.String(); !strings.Contains(got, "\x1b[1A\x1b[J") {
		t.Errorf("second campaign should repaint the one-line block: %q", got)
	}

	b(2, 2) // beta completes: its line becomes permanent, alpha stays active
	a(4, 4) // alpha completes: block empties
	p.Done("alpha")
	p.Done("beta")

	out := buf.String()
	ia := strings.LastIndex(out, "alpha                           4/4 trials")
	ib := strings.LastIndex(out, "beta                            2/2 trials")
	if ia < 0 || ib < 0 || ib > ia {
		t.Errorf("completion lines missing or out of completion order (beta first): %q", out)
	}
	if p.drawn != 0 || len(p.order) != 0 {
		t.Errorf("block not empty after both campaigns finished: drawn=%d order=%v", p.drawn, p.order)
	}
}

// TestSuspendProtectsInterleavedOutput: while a report is printing, the
// block must be erased (so no cursor-up can destroy the report) and updates
// must accumulate silently, repainting only on resume.
func TestSuspendProtectsInterleavedOutput(t *testing.T) {
	var buf bytes.Buffer
	p := newTTYProgress(&buf)
	a, b := p.callback("alpha", "alpha"), p.callback("beta", "beta")
	a(1, 4)
	b(1, 2)

	p.suspend()
	if p.drawn != 0 {
		t.Errorf("suspend left %d drawn block lines", p.drawn)
	}
	mark := buf.Len()
	a(2, 4) // active update while suspended: nothing may be written
	b(2, 2) // completion while suspended: queued, not written
	if buf.Len() != mark {
		t.Errorf("suspended renderer wrote %q", buf.String()[mark:])
	}
	buf.Reset()
	p.resume()
	out := buf.String()
	if !strings.Contains(out, "beta") || !strings.Contains(out, "2/2 trials") {
		t.Errorf("resume did not flush the queued completion line: %q", out)
	}
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "2/4 trials") {
		t.Errorf("resume did not repaint the active block: %q", out)
	}
	if strings.Contains(out, "\x1b[") && strings.Index(out, "\x1b[") < strings.Index(out, "beta") {
		t.Errorf("resume moved the cursor before printing (would erase prior output): %q", out)
	}
}

func TestProgressDoneResetsMilestones(t *testing.T) {
	var buf bytes.Buffer
	p := NewProgress(&buf)
	cb := p.callback("again", "again")
	cb(4, 4)
	p.Done("again")
	cb = p.callback("again", "again")
	cb(4, 4) // a re-run of the same campaign must report afresh
	if got := strings.Count(buf.String(), "4/4 trials"); got != 2 {
		t.Errorf("re-run milestone emitted %d times, want 2: %q", got, buf.String())
	}
}

// TestTTYRowsRepaintInJobBlock: a job's detail rows are drawn beneath its
// counter line inside the status block, repainted with it, and left on
// screen with it when the counter completes; retiring the job afterwards
// draws nothing.
func TestTTYRowsRepaintInJobBlock(t *testing.T) {
	var buf bytes.Buffer
	p := newTTYProgress(&buf)
	p.Update("local", "local", 1, 4)
	p.Update("fleet", "fleet", 2, 8, "  worker a: ranges=1")
	if p.drawn != 3 {
		t.Errorf("block occupies %d lines, want 3 (two counters, one row)", p.drawn)
	}
	buf.Reset()
	p.Update("fleet", "fleet", 8, 8, "  worker a: ranges=1", "  worker b: ranges=2")
	out := buf.String()
	if !strings.HasPrefix(out, "\r\x1b[3A\x1b[J") {
		t.Errorf("repaint did not erase the three-line block first: %q", out)
	}
	want := "fleet                           8/8 trials\n  worker a: ranges=1\n  worker b: ranges=2\nlocal"
	if !strings.Contains(out, want) {
		t.Errorf("completed job's counter and rows not printed above the block:\n%q", out)
	}
	if p.drawn != 1 || len(p.order) != 1 {
		t.Errorf("after completion the block holds drawn=%d order=%v, want only the local job", p.drawn, p.order)
	}
	mark := buf.Len()
	p.Done("fleet")
	if buf.Len() != mark {
		t.Errorf("retiring the finished job drew again: %q", buf.String()[mark:])
	}
}

// TestNonTTYRowsPrintOnceAtDone: on a plain writer a job's rows stay off
// the log while it runs and print once, in their latest form, when the job
// is retired; retiring it again prints nothing.
func TestNonTTYRowsPrintOnceAtDone(t *testing.T) {
	var buf bytes.Buffer
	p := NewProgress(&buf)
	p.Update("fleet", "fleet", 4, 8, "  worker a: ranges=1")
	p.Update("fleet", "fleet", 8, 8, "  worker a: ranges=2", "  worker b: ranges=1")
	if strings.Contains(buf.String(), "worker") {
		t.Errorf("rows printed before the job was retired: %q", buf.String())
	}
	p.Done("fleet")
	p.Done("fleet")
	want := "fleet                           4/8 trials\n" +
		"fleet                           8/8 trials\n" +
		"  worker a: ranges=2\n  worker b: ranges=1\n"
	if got := buf.String(); got != want {
		t.Errorf("non-TTY output\n got %q\nwant %q", got, want)
	}
}

// TestNilProgressIsNoOp: progress off is a nil renderer, and every method
// on it is safe.
func TestNilProgressIsNoOp(t *testing.T) {
	p := NewProgress(nil)
	if p != nil {
		t.Fatal("NewProgress(nil) returned a renderer")
	}
	if p.callback("x", "x") != nil {
		t.Error("nil renderer handed out a callback")
	}
	p.Update("x", "x", 1, 2, "row")
	p.suspend()
	p.resume()
	p.Done("x")
}

func TestIsTTY(t *testing.T) {
	if isTTY(&bytes.Buffer{}) {
		t.Error("a bytes.Buffer is not a terminal")
	}
	if isTTY(nil) {
		t.Error("nil writer is not a terminal")
	}
	f, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Skipf("cannot open %s: %v", os.DevNull, err)
	}
	defer f.Close()
	if fi, err := f.Stat(); err == nil && fi.Mode()&os.ModeCharDevice != 0 && !isTTY(f) {
		t.Errorf("%s is a character device but isTTY says no", os.DevNull)
	}
}
