package run

import (
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
)

// Progress renders streaming trial counters — one counter line per job,
// plus optional detail rows (the coordinator's per-worker rows) — for every
// front end: a session's campaigns and a coordinated job alike. On an
// interactive terminal it maintains an in-place status block in which each
// active job owns its counter line and rows (rewritten with ANSI cursor
// movement, so overlapped suite campaigns each own a part of the block and
// completed jobs scroll away above it). On any other writer — CI logs,
// files, pipes — it emits newline-delimited milestone lines instead (each
// completed quarter of a job, plus completion) and a job's rows once, when
// the job is retired, which keeps logs readable: carriage returns would
// fold a whole run into one unreadable mega-line and would interleave
// mid-line across concurrent jobs.
//
// A nil *Progress is progress off; every method is then a no-op.
type Progress struct {
	w   io.Writer
	tty bool

	mu        sync.Mutex
	jobs      map[string]*progressJob // by job id, until Done
	order     []string                // jobs in the TTY block, in registration order
	drawn     int                     // lines the TTY status block currently occupies
	suspended bool                    // block erased while other output is printing
	pending   []string                // permanent lines queued during suspension
}

// progressJob is one job's rendering state.
type progressJob struct {
	line    string   // latest counter line; set once the job joins the TTY block
	rows    []string // latest detail rows
	quarter int      // last milestone quarter emitted (non-TTY)
}

// lines is the job's part of the TTY block: its counter line, then its rows.
func (j *progressJob) lines() []string {
	return append([]string{j.line}, j.rows...)
}

// NewProgress returns a renderer for w, or nil (progress off) when w is nil.
func NewProgress(w io.Writer) *Progress {
	if w == nil {
		return nil
	}
	return &Progress{w: w, tty: isTTY(w), jobs: make(map[string]*progressJob)}
}

// isTTY reports whether w is an interactive terminal. Only an *os.File can
// be one; the character-device check needs no platform dependencies.
func isTTY(w io.Writer) bool {
	f, ok := w.(*os.File)
	if !ok {
		return false
	}
	fi, err := f.Stat()
	return err == nil && fi.Mode()&os.ModeCharDevice != 0
}

// progressLine is the shared one-job counter format.
func progressLine(name string, done, total int) string {
	return fmt.Sprintf("%-28s %4d/%d trials", name, done, total)
}

// callback returns the engine progress callback for one job, or nil when
// progress is off.
func (p *Progress) callback(id, name string) func(done, total int) {
	if p == nil {
		return nil
	}
	return func(done, total int) { p.Update(id, name, done, total) }
}

// Update records a job's trial counter and replaces its detail rows. Jobs
// are keyed by id — the spec's content hash — so two concurrent jobs of the
// same scenario at different seeds each own their own line and milestone
// counter; name is only the display label. done must not decrease for one
// job until Done retires it. Safe for concurrent jobs: every write is made
// under the renderer's lock, whole lines at a time.
func (p *Progress) Update(id, name string, done, total int, rows ...string) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	j := p.jobs[id]
	if j == nil {
		j = &progressJob{}
		p.jobs[id] = j
	}
	j.rows = rows
	if !p.tty {
		// Milestones: emit one line whenever the job crosses into a new
		// quarter of its total. done is monotonic per job, so at most four
		// lines appear and their counters never go backwards.
		q := 4
		if total > 0 {
			q = 4 * done / total
		}
		if q > j.quarter {
			j.quarter = q
			fmt.Fprintf(p.w, "%s\n", progressLine(name, done, total))
		}
		return
	}
	if j.line == "" {
		p.order = append(p.order, id)
	}
	j.line = progressLine(name, done, total)
	var permanent []string
	if done == total {
		permanent = j.lines()
		p.removeLocked(id)
	}
	if p.suspended {
		p.pending = append(p.pending, permanent...)
		return
	}
	p.redrawLocked(permanent)
}

// suspend erases the TTY status block so the caller can print other output
// (a finished campaign's report) without the next repaint's cursor-up
// destroying it; state keeps accumulating until resume repaints the block
// below whatever was printed. Non-TTY writers need no coordination — their
// lines are self-contained — so suspension only gates the block.
func (p *Progress) suspend() {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.suspended = true
	if p.tty && p.drawn > 0 {
		fmt.Fprintf(p.w, "\r\x1b[%dA\x1b[J", p.drawn)
		p.drawn = 0
	}
}

// resume repaints the status block (and flushes completion lines queued
// while suspended) at the current cursor position.
func (p *Progress) resume() {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.suspended = false
	if p.tty && (len(p.pending) > 0 || len(p.order) > 0) {
		p.redrawLocked(p.pending)
		p.pending = nil
	}
}

// Write prints b above the status block, for diagnostics sharing the
// renderer's writer: on a terminal it erases the block, writes b and
// repaints the block below it, so the next repaint cannot overwrite b. On
// any other writer, or while the block is suspended or empty, it is a
// plain write. b should end with a newline. A nil *Progress discards b.
func (p *Progress) Write(b []byte) (int, error) {
	if p == nil {
		return len(b), nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.tty || p.drawn == 0 {
		return p.w.Write(b)
	}
	fmt.Fprintf(p.w, "\r\x1b[%dA\x1b[J", p.drawn)
	p.drawn = 0
	n, err := p.w.Write(b)
	p.redrawLocked(nil)
	return n, err
}

// Done retires a job once its execution returns. On a terminal a job still
// in the block (it errored, or its counter never completed) leaves it with
// its last counter line and rows printed permanently; elsewhere the job's
// rows print now, once. Its milestone state resets, so a later re-run in
// the same session reports afresh. Retiring an unknown job is a no-op.
func (p *Progress) Done(id string) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	j := p.jobs[id]
	if j == nil {
		return
	}
	delete(p.jobs, id)
	if !p.tty {
		for _, r := range j.rows {
			fmt.Fprintf(p.w, "%s\n", r)
		}
		return
	}
	if !p.removeLocked(id) {
		return // never drawn, or already printed when its counter completed
	}
	if p.suspended {
		p.pending = append(p.pending, j.lines()...)
		return
	}
	p.redrawLocked(j.lines())
}

// removeLocked takes a job out of the TTY block, reporting whether it was
// there.
func (p *Progress) removeLocked(id string) bool {
	for i, n := range p.order {
		if n == id {
			p.order = append(p.order[:i], p.order[i+1:]...)
			return true
		}
	}
	return false
}

// redrawLocked repaints the TTY status block in place: cursor up to the
// block's first line, erase downward, print any newly permanent lines
// (completed jobs), then each active job's counter line and rows.
func (p *Progress) redrawLocked(permanent []string) {
	var b strings.Builder
	if p.drawn > 0 {
		fmt.Fprintf(&b, "\r\x1b[%dA\x1b[J", p.drawn)
	}
	for _, l := range permanent {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	p.drawn = 0
	for _, id := range p.order {
		for _, l := range p.jobs[id].lines() {
			b.WriteString(l)
			b.WriteByte('\n')
			p.drawn++
		}
	}
	io.WriteString(p.w, b.String())
}
