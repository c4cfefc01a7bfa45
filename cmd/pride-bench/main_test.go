package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestScaled(t *testing.T) {
	cases := []struct {
		full, scale, min, want int
	}{
		{10_000_000, 1, 1000, 10_000_000},
		{10_000_000, 100, 1000, 100_000},
		{10_000_000, 1_000_000, 1000, 1000}, // floor
		{200_000, 200, 1000, 1000},
	}
	for _, c := range cases {
		if got := scaled(c.full, c.scale, c.min); got != c.want {
			t.Errorf("scaled(%d, %d, %d) = %d, want %d", c.full, c.scale, c.min, got, c.want)
		}
	}
}

func TestEnginesCoverTheGuardedHotPaths(t *testing.T) {
	guarded := 0
	names := map[string]bool{}
	for _, e := range engines(1) {
		if names[e.name] {
			t.Errorf("duplicate engine name %q", e.name)
		}
		names[e.name] = true
		if e.unitsPerOp < 1 {
			t.Errorf("engine %q has unitsPerOp %d", e.name, e.unitsPerOp)
		}
		if e.guardAllocs {
			guarded++
		}
	}
	if guarded < 3 {
		t.Fatalf("only %d alloc-guarded engines; want the PrIDE, PARA and skip-ahead hot paths", guarded)
	}
	for _, want := range []string{
		"loss-engine-10M", "loss-event-10M", "rounds-event",
		"pride-hot-path", "para-hot-path", "pride-skip-path",
		"attack-event", "pattern-loss-event", "workload-gen", "replay-step",
	} {
		if !names[want] {
			t.Errorf("engine %q missing", want)
		}
	}
}

func report(recs ...record) benchReport {
	return benchReport{SchemaVersion: schemaVersion, Scale: 1, Benchmarks: recs}
}

func TestCompareReportsAllocGate(t *testing.T) {
	base := report(record{Name: "x", Unit: "ACT", NsPerUnit: 10, AllocsPerOp: 0, GuardAllocs: true})
	fresh := report(record{Name: "x", Unit: "ACT", NsPerUnit: 10, AllocsPerOp: 1, GuardAllocs: true})
	var out strings.Builder
	if failures := compareReports(fresh, base, -1, &out); failures != 1 {
		t.Fatalf("failures = %d, want 1\n%s", failures, out.String())
	}
	if !strings.Contains(out.String(), "FAIL") || !strings.Contains(out.String(), "allocs/op") {
		t.Fatalf("no alloc diagnostic:\n%s", out.String())
	}
}

func TestCompareReportsUnguardedAllocsPass(t *testing.T) {
	base := report(record{Name: "x", Unit: "period", NsPerUnit: 10, AllocsPerOp: 5})
	fresh := report(record{Name: "x", Unit: "period", NsPerUnit: 10, AllocsPerOp: 9})
	var out strings.Builder
	if failures := compareReports(fresh, base, -1, &out); failures != 0 {
		t.Fatalf("failures = %d, want 0 for an unguarded engine\n%s", failures, out.String())
	}
}

func TestCompareReportsNsGate(t *testing.T) {
	base := report(record{Name: "x", Unit: "period", NsPerUnit: 100})
	slow := report(record{Name: "x", Unit: "period", NsPerUnit: 140})
	var out strings.Builder
	if failures := compareReports(slow, base, 0.25, &out); failures != 1 {
		t.Fatalf("failures = %d, want 1 for a 40%% regression at 25%% tolerance\n%s", failures, out.String())
	}
	out.Reset()
	if failures := compareReports(slow, base, -1, &out); failures != 0 {
		t.Fatalf("failures = %d, want 0 with the time gate disabled\n%s", failures, out.String())
	}
	out.Reset()
	within := report(record{Name: "x", Unit: "period", NsPerUnit: 120})
	if failures := compareReports(within, base, 0.25, &out); failures != 0 {
		t.Fatalf("failures = %d, want 0 within tolerance\n%s", failures, out.String())
	}
}

func TestCompareReportsMissingBaselineIsNew(t *testing.T) {
	base := report(record{Name: "retired", Unit: "ACT", NsPerUnit: 2})
	fresh := report(record{Name: "brand-new", Unit: "ACT", NsPerUnit: 1, GuardAllocs: true, AllocsPerOp: 7})
	var out strings.Builder
	if failures := compareReports(fresh, base, 0.25, &out); failures != 0 {
		t.Fatalf("failures = %d, want 0 for a benchmark absent from the baseline", failures)
	}
	if !strings.Contains(out.String(), "NEW") || !strings.Contains(out.String(), "brand-new") {
		t.Fatalf("new benchmark not reported as NEW:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "GONE") || !strings.Contains(out.String(), "retired") {
		t.Fatalf("baseline-only benchmark not reported as GONE:\n%s", out.String())
	}
}

func TestLoadBaselineErrors(t *testing.T) {
	if _, err := loadBaseline(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Error("no error for a missing baseline")
	}
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	os.WriteFile(bad, []byte("not json"), 0o644)
	if _, err := loadBaseline(bad); err == nil {
		t.Error("no error for malformed JSON")
	}
	wrong := filepath.Join(dir, "wrong.json")
	raw, _ := json.Marshal(benchReport{SchemaVersion: schemaVersion + 1})
	os.WriteFile(wrong, raw, 0o644)
	if _, err := loadBaseline(wrong); err == nil {
		t.Error("no error for a wrong schema version")
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-scale", "0"}, &out, &errOut); code != 2 {
		t.Fatalf("-scale 0: exit %d, want 2", code)
	}
	if code := run([]string{"-no-such-flag"}, &out, &errOut); code != 2 {
		t.Fatalf("unknown flag: exit %d, want 2", code)
	}
}

// TestRunEndToEnd measures every engine at an extreme smoke scale, writes the
// JSON report, and gates it against a synthetic all-passing baseline. Skipped
// in -short mode: testing.Benchmark targets ~1s per engine.
func TestRunEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark harness run is slow")
	}
	dir := t.TempDir()
	outPath := filepath.Join(dir, "fresh.json")
	basePath := filepath.Join(dir, "base.json")

	// Synthetic baseline: same engine names, generous alloc budgets, so the
	// alloc gate is exercised end-to-end without a second measuring pass.
	base := benchReport{SchemaVersion: schemaVersion, Scale: 20_000}
	for _, e := range engines(1) {
		base.Benchmarks = append(base.Benchmarks, record{
			Name: e.name, Unit: e.unit, UnitsPerOp: e.unitsPerOp,
			NsPerUnit: 1, AllocsPerOp: 1 << 30, GuardAllocs: e.guardAllocs,
		})
	}
	raw, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(basePath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	var stdout, stderr strings.Builder
	code := run([]string{"-scale", "20000", "-out", outPath, "-compare", basePath, "-max-ns-regress", "-1"},
		&stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}

	fresh, err := loadBaseline(outPath)
	if err != nil {
		t.Fatalf("re-reading emitted report: %v", err)
	}
	if len(fresh.Benchmarks) != len(base.Benchmarks) {
		t.Fatalf("emitted %d benchmarks, want %d", len(fresh.Benchmarks), len(base.Benchmarks))
	}
	for _, r := range fresh.Benchmarks {
		if r.NsPerOp <= 0 || r.NsPerUnit <= 0 {
			t.Errorf("%s: non-positive timing %+v", r.Name, r)
		}
		if r.GuardAllocs && r.AllocsPerOp != 0 {
			t.Errorf("%s: guarded hot path allocated %d allocs/op", r.Name, r.AllocsPerOp)
		}
	}
	if !strings.Contains(stdout.String(), "ok") {
		t.Fatalf("comparison summary missing:\n%s", stdout.String())
	}
}
