package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The golden corpus pins every figure reproduction byte-for-byte: the files
// under testdata/golden were generated from the pre-engine serial generators
// (go test ./internal/experiments -run TestGolden -update), so this test
// proves two things at once — the campaign ports preserve each figure's
// exact output, and that output is identical at every engine worker count
// (the table sweeps seeds 1 and 5 at 1 and 8 workers).
//
// Render prints three decimals, so next to each rendered golden sits a
// SHA-256 of the figure's canonical JSON, which pins every bit of every
// value: a result that drifts in its last digits between runs or worker
// counts fails here even when its rendering does not change.

var updateGolden = flag.Bool("update", false, "rewrite the golden figure outputs")

var goldenSeeds = []int64{1, 5}

// goldenWorkers are the engine worker counts every figure must agree across.
var goldenWorkers = []int{1, 8}

// slowFigs are skipped under -short; the full run covers them.
var slowFigs = map[string]bool{"fig18": true, "fig19": true, "fig22": true}

func goldenPath(id string, seed int64) string {
	return filepath.Join("testdata", "golden", fmt.Sprintf("%s_seed%d.golden", id, seed))
}

func digestPath(id string, seed int64) string {
	return filepath.Join("testdata", "golden", fmt.Sprintf("%s_seed%d.sha256", id, seed))
}

// canonicalDigest is the hex SHA-256 of res encoded as a figure job's
// spec.Value, {"figure":<result>}: the bytes the result cache stores.
func canonicalDigest(t *testing.T, res *Result) string {
	t.Helper()
	b, err := json.Marshal(struct {
		Figure *Result `json:"figure"`
	}{res})
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func TestGoldenFigures(t *testing.T) {
	for _, seed := range goldenSeeds {
		for _, workers := range goldenWorkers {
			for _, e := range All() {
				e, seed, workers := e, seed, workers
				if *updateGolden && workers != 1 {
					continue // goldens are defined by the serial run
				}
				t.Run(fmt.Sprintf("%s/seed%d/workers%d", e.ID, seed, workers), func(t *testing.T) {
					if testing.Short() && slowFigs[e.ID] {
						t.Skip("slow figure; run without -short")
					}
					res, err := e.RunWorkers(seed, workers)
					if err != nil {
						t.Fatal(err)
					}
					got := res.Render()
					digest := canonicalDigest(t, res)
					path := goldenPath(e.ID, seed)
					if *updateGolden {
						if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
							t.Fatal(err)
						}
						if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
							t.Fatal(err)
						}
						if err := os.WriteFile(digestPath(e.ID, seed), []byte(digest+"\n"), 0o644); err != nil {
							t.Fatal(err)
						}
						return
					}
					want, err := os.ReadFile(path)
					if err != nil {
						t.Fatalf("missing golden file (regenerate with -update): %v", err)
					}
					if got != string(want) {
						t.Errorf("%s seed %d workers %d diverged from golden output\n--- got ---\n%s--- want ---\n%s",
							e.ID, seed, workers, got, want)
					}
					wantDigest, err := os.ReadFile(digestPath(e.ID, seed))
					if err != nil {
						t.Fatalf("missing golden digest (regenerate with -update): %v", err)
					}
					if digest != strings.TrimSpace(string(wantDigest)) {
						t.Errorf("%s seed %d workers %d: full-precision JSON digest %s, golden %s",
							e.ID, seed, workers, digest, strings.TrimSpace(string(wantDigest)))
					}
				})
			}
		}
	}
}
