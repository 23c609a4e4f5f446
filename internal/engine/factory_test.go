package engine

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"resilientloc/internal/engine/params"
)

var updateFactoryGolden = flag.Bool("update", false, "rewrite the factory-workload golden reports")

func TestFactoriesWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for _, f := range Factories() {
		if f.Name == "" || f.Description == "" {
			t.Errorf("factory %+v missing name or description", f.Name)
		}
		if seen[f.Name] {
			t.Errorf("duplicate factory name %q", f.Name)
		}
		seen[f.Name] = true
		if _, ok := Find(f.Name); ok {
			t.Errorf("factory %q collides with a library scenario name", f.Name)
		}
		if _, ok := FindFactory(f.Name); !ok {
			t.Errorf("FindFactory(%q) failed", f.Name)
		}
		if err := f.Params.SelfCheck(); err != nil {
			t.Errorf("factory %q schema: %v", f.Name, err)
		}
		if len(f.Params) == 0 {
			t.Errorf("factory %q declares no parameters", f.Name)
		}
		// The default operating point must build and validate.
		s, resolved, err := BuildScenario(f.Name, nil)
		if err != nil {
			t.Errorf("factory %q default build: %v", f.Name, err)
			continue
		}
		if err := s.Validate(); err != nil {
			t.Errorf("factory %q default scenario invalid: %v", f.Name, err)
		}
		if len(resolved) != len(f.Params) {
			t.Errorf("factory %q resolved %d params, schema declares %d", f.Name, len(resolved), len(f.Params))
		}
	}
	if _, ok := FindFactory("nope"); ok {
		t.Error("FindFactory accepted unknown name")
	}
}

func TestBuildScenarioErrors(t *testing.T) {
	if _, _, err := BuildScenario("no-such-scenario", nil); err == nil {
		t.Error("unknown name accepted")
	}
	// Library instances are fixed points — params must be rejected by name.
	_, _, err := BuildScenario("multilat-town", params.Map{"drop": params.Num(3)})
	if err == nil || !strings.Contains(err.Error(), "takes no parameters") {
		t.Errorf("library instance with params: got %v", err)
	}
	// Factory param validation errors carry the scenario and param names.
	_, _, err = BuildScenario("ranging-noise", params.Map{"delta_db": params.Num(99)})
	if err == nil || !strings.Contains(err.Error(), "delta_db") || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("out-of-range param: got %v", err)
	}
	_, _, err = BuildScenario("ranging-noise", params.Map{"bogus": params.Num(1)})
	if err == nil || !strings.Contains(err.Error(), `unknown parameter "bogus"`) {
		t.Errorf("unknown param: got %v", err)
	}
	_, _, err = BuildScenario("maxrange", params.Map{"env": params.Str("moon")})
	if err == nil || !strings.Contains(err.Error(), "not one of") {
		t.Errorf("bad enum: got %v", err)
	}
}

// TestFactoryPointsMatchLegacyConstructors pins the tentpole's compatibility
// claim: a param-expressed operating point is byte-identical to the
// compiled-in constructor it replaces.
func TestFactoryPointsMatchLegacyConstructors(t *testing.T) {
	cases := []struct {
		factory string
		p       params.Map
		legacy  Scenario
	}{
		{"ranging-noise", params.Map{"delta_db": params.Num(6)}, NoiseSweep(6)},
		{"multilat-dropout", params.Map{"drop": params.Num(6)}, AnchorDropout(6)},
		{"multilat-grid", nil, LargeGrid(14, 14)},
	}
	for _, c := range cases {
		t.Run(c.factory, func(t *testing.T) {
			built, _, err := BuildScenario(c.factory, c.p)
			if err != nil {
				t.Fatal(err)
			}
			if built.Name != c.legacy.Name {
				t.Fatalf("factory built %q, legacy is %q", built.Name, c.legacy.Name)
			}
			cfg := Config{Workers: 2, Trials: 4, Seed: 7}
			a := mustRun(t, cfg, built)
			b := mustRun(t, cfg, c.legacy)
			if !sameReport(a, b) {
				t.Errorf("factory point diverges from legacy constructor %q", c.legacy.Name)
			}
		})
	}
}

// TestMobilitySpeedDegrades: the new workload's physics — measurements taken
// mid-walk at higher speed must hurt accuracy relative to a static network.
func TestMobilitySpeedDegrades(t *testing.T) {
	cfg := Config{Workers: 0, Trials: 6, Seed: 9}
	still := mustRun(t, cfg, MobilityWaypoint(0, 4))
	fast := mustRun(t, cfg, MobilityWaypoint(5, 4))
	eStill, ok := still.Metric("avg_error_m")
	if !ok {
		t.Fatal("static run recorded no avg_error_m")
	}
	eFast, ok := fast.Metric("avg_error_m")
	if !ok {
		t.Fatal("fast run recorded no avg_error_m")
	}
	if eFast.Mean <= eStill.Mean {
		t.Errorf("5 m/s motion did not degrade accuracy: %.3f m -> %.3f m", eStill.Mean, eFast.Mean)
	}
	if eStill.Mean > 2 {
		t.Errorf("static mobility run avg error %.2f m, want town-like (< 2 m)", eStill.Mean)
	}
}

// TestMixedEnvRuns: the straddling-grid workload produces readings from both
// sides of the boundary and town-like error statistics.
func TestMixedEnvRuns(t *testing.T) {
	s, _, err := BuildScenario("ranging-mixed-env", params.Map{"boundary_frac": params.Num(0.5)})
	if err != nil {
		t.Fatal(err)
	}
	rep := mustRun(t, Config{Workers: 4, Trials: 2, Seed: 3}, s)
	frac, ok := rep.Metric("env_a_pair_frac")
	if !ok || frac.Mean <= 0.1 || frac.Mean >= 0.9 {
		t.Errorf("env_a_pair_frac %.2f, want a genuine split", frac.Mean)
	}
	if n, ok := rep.Metric("readings"); !ok || n.Mean < 50 {
		t.Errorf("readings %.0f, want a populated campaign", n.Mean)
	}
	if med, ok := rep.Metric("median_abs_error_m"); !ok || med.Mean > 1 {
		t.Errorf("median abs error %.3f m, want sub-meter", med.Mean)
	}
}

func factoryGoldenPath(name string, seed int64) string {
	return filepath.Join("testdata", "golden", fmt.Sprintf("%s_seed%d.golden", name, seed))
}

// TestGoldenFactoryWorkloads pins the parameterized workloads and every
// library scenario at seeds 1 and 5 across worker counts, exactly like the
// figure corpus: the golden bytes are the serial run's JSON report with
// execution metadata cleared, so every float is pinned at full precision
// and the 8-worker run must reproduce the serial bytes in process. Library
// scenarios run 2 trials in 1-trial shards, which keeps them cheap while
// still merging more than one shard.
func TestGoldenFactoryWorkloads(t *testing.T) {
	type point struct {
		factory           string
		p                 params.Map
		trials, shardSize int // 0 = the scenario's defaults
	}
	points := []point{
		{factory: "mobility-waypoint", p: params.Map{"speed_mps": params.Num(1.5), "epoch_s": params.Num(4)}},
		{factory: "ranging-mixed-env"},
	}
	for _, s := range Library() {
		points = append(points, point{factory: s.Name, trials: 2, shardSize: 1})
	}
	for _, pt := range points {
		for _, seed := range []int64{1, 5} {
			for _, workers := range []int{1, 8} {
				if *updateFactoryGolden && workers != 1 {
					continue // goldens are defined by the serial run
				}
				t.Run(fmt.Sprintf("%s/seed%d/workers%d", pt.factory, seed, workers), func(t *testing.T) {
					s, _, err := BuildScenario(pt.factory, pt.p)
					if err != nil {
						t.Fatal(err)
					}
					rep := mustRun(t, Config{Workers: workers, Seed: seed, Trials: pt.trials, ShardSize: pt.shardSize}, s)
					rep.ClearExecutionMeta()
					got, err := json.MarshalIndent(rep, "", "  ")
					if err != nil {
						t.Fatal(err)
					}
					got = append(got, '\n')
					path := factoryGoldenPath(pt.factory, seed)
					if *updateFactoryGolden {
						if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
							t.Fatal(err)
						}
						if err := os.WriteFile(path, got, 0o644); err != nil {
							t.Fatal(err)
						}
						return
					}
					want, err := os.ReadFile(path)
					if err != nil {
						t.Fatalf("missing golden file (regenerate with -update): %v", err)
					}
					if string(got) != string(want) {
						t.Errorf("%s seed %d workers %d diverged from golden report\n--- got ---\n%s--- want ---\n%s",
							pt.factory, seed, workers, got, want)
					}
				})
			}
		}
	}
}
