package main

import (
	"bytes"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"resilientloc/internal/engine/run"
	"resilientloc/internal/locsrv"
)

// distWorkers stands up two real locd services for the -workers flag.
func distWorkers(t *testing.T) string {
	t.Helper()
	var urls []string
	for i := 0; i < 2; i++ {
		srv, err := locsrv.New(run.Options{CacheDir: filepath.Join(t.TempDir(), "cache")})
		if err != nil {
			t.Fatal(err)
		}
		hs := httptest.NewServer(srv.Handler())
		t.Cleanup(func() { srv.Close(); hs.Close() })
		urls = append(urls, hs.URL)
	}
	return strings.Join(urls, ",")
}

// TestWorkersFlagMatchesLocalJSON: figure results carry no execution
// metadata, so -workers -json output is byte-identical to the local run.
func TestWorkersFlagMatchesLocalJSON(t *testing.T) {
	args := []string{"-only", "maxrange", "-seed", "1", "-json", "-no-cache"}
	var local bytes.Buffer
	if err := realMain(args, &local); err != nil {
		t.Fatal(err)
	}
	var dist bytes.Buffer
	if err := realMain(append(args, "-workers", distWorkers(t)), &dist); err != nil {
		t.Fatal(err)
	}
	if local.String() != dist.String() {
		t.Errorf("-workers JSON output diverged from local run\nlocal %s\ndist  %s", local.String(), dist.String())
	}
}
