package main

import (
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pride/internal/analytic"
	"pride/internal/cli"
	"pride/internal/dram"
	"pride/internal/engine"
	"pride/internal/montecarlo"
	"pride/internal/trialrunner"
)

// fig8Quiet calls fig8 with no campaign features enabled, the way the other
// table builders are exercised.
func fig8Quiet(t *testing.T, p dram.Params, periods int, seed uint64, workers int) string {
	t.Helper()
	tbl, err := fig8(context.Background(), p, periods, seed, workers, cli.CampaignFlags{}, nil, io.Discard)
	if err != nil {
		t.Fatalf("fig8: %v", err)
	}
	return tbl.String()
}

func TestEveryTableBuilderProducesRows(t *testing.T) {
	p := dram.DDR5()
	const ttf = analytic.DefaultTargetTTFYears
	builders := map[string]func() string{
		"table1":  func() string { return table1(p).String() },
		"table2":  func() string { return table2().String() },
		"fig8":    func() string { return fig8Quiet(t, p, 20_000, 1, 2) },
		"table3":  func() string { return table3(p, ttf).String() },
		"fig9":    func() string { return fig9(p, ttf).String() },
		"table4":  func() string { return table4(p, ttf).String() },
		"table5":  func() string { return table5(p, ttf).String() },
		"table6":  func() string { return table6(p, ttf).String() },
		"table8":  func() string { return table8(p).String() },
		"table9":  func() string { return table9(p).String() },
		"table11": func() string { return table11().String() },
		"table12": func() string { return table12(p, ttf).String() },
		"zoo":     func() string { return zooTable(p, ttf).String() },
	}
	for name, build := range builders {
		out := build()
		if lines := strings.Count(out, "\n"); lines < 4 {
			t.Errorf("%s: only %d lines:\n%s", name, lines, out)
		}
	}
}

func TestZooTableCoversTheZoo(t *testing.T) {
	out := zooTable(dram.DDR5(), analytic.DefaultTargetTTFYears).String()
	for _, scheme := range []string{"PrIDE", "MINT", "MOAT", "PARFM"} {
		if !strings.Contains(out, scheme) {
			t.Errorf("zoo table missing %s:\n%s", scheme, out)
		}
	}
	// MOAT's deterministic row: TRH* is exactly the ATO threshold.
	if !strings.Contains(out, "128") {
		t.Errorf("zoo table missing MOAT's deterministic TRH* 128:\n%s", out)
	}
}

func TestRunZooFlag(t *testing.T) {
	var out, errOut strings.Builder
	if code := run(context.Background(), []string{"-zoo"}, &out, &errOut); code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "Tracker zoo") || !strings.Contains(out.String(), "MINT") {
		t.Fatalf("-zoo output incomplete:\n%s", out.String())
	}
}

func TestTable9ShowsTheCliffs(t *testing.T) {
	out := table9(dram.DDR5()).String()
	// The Table IX story: plain PrIDE protects million-year at today's
	// thresholds and collapses below ~1200.
	if !strings.Contains(out, "> 1 Mln years") {
		t.Fatalf("missing the >1Mln regime:\n%s", out)
	}
	if !strings.Contains(out, "< 1 sec") {
		t.Fatalf("missing the sub-second collapse:\n%s", out)
	}
}

func TestTable11ShowsPrIDEConstantStorage(t *testing.T) {
	out := table11().String()
	if strings.Count(out, "10 bytes") != 2 {
		t.Fatalf("PrIDE must cost 10 bytes at both thresholds:\n%s", out)
	}
	if !strings.Contains(out, "MB") {
		t.Fatalf("counter trackers must reach MB scale at TRH-D=400:\n%s", out)
	}
}

func TestFig8TableHasAllPositions(t *testing.T) {
	p := dram.DDR5()
	out := fig8Quiet(t, p, 5_000, 1, 1)
	// Header + separator + title + one row per position.
	want := p.ACTsPerTREFI() + 3
	if got := strings.Count(strings.TrimSpace(out), "\n") + 1; got != want {
		t.Fatalf("fig8 rows = %d, want %d", got, want)
	}
}

func TestFig8WorkerCountInvariant(t *testing.T) {
	// The headline determinism guarantee at the CLI layer: the rendered
	// Fig 8 table is byte-identical for every -workers value.
	p := dram.DDR5()
	want := fig8Quiet(t, p, 30_000, 9, 1)
	for _, workers := range []int{2, 4, 7} {
		if got := fig8Quiet(t, p, 30_000, 9, workers); got != want {
			t.Fatalf("fig8 output differs between -workers 1 and -workers %d", workers)
		}
	}
}

func TestRunWorkersFlag(t *testing.T) {
	var out, errOut strings.Builder
	if code := run(context.Background(), []string{"-table", "11", "-workers", "2"}, &out, &errOut); code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "Table XI") {
		t.Fatalf("table missing from output:\n%s", out.String())
	}
}

func TestRunWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	var out, errOut strings.Builder
	code := run(context.Background(),
		[]string{"-table", "11", "-cpuprofile", cpu, "-memprofile", mem}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, errOut.String())
	}
	for _, path := range []string{cpu, mem} {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if fi.Size() == 0 {
			t.Fatalf("profile %s is empty", path)
		}
	}
}

func TestRunRejectsBadProfilePath(t *testing.T) {
	var out, errOut strings.Builder
	bad := filepath.Join(t.TempDir(), "no", "such", "dir", "cpu.pprof")
	if code := run(context.Background(), []string{"-table", "11", "-cpuprofile", bad}, &out, &errOut); code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "CPU profile") {
		t.Fatalf("no diagnostic on stderr: %q", errOut.String())
	}
}

func TestRunRejectsBadWorkers(t *testing.T) {
	for _, bad := range []string{"0", "-3"} {
		var out, errOut strings.Builder
		if code := run(context.Background(), []string{"-table", "11", "-workers", bad}, &out, &errOut); code != 2 {
			t.Errorf("-workers %s: exit code %d, want 2", bad, code)
		}
		if !strings.Contains(errOut.String(), "workers") {
			t.Errorf("-workers %s: no diagnostic on stderr: %q", bad, errOut.String())
		}
	}
}

func TestRunRejectsEmptySelection(t *testing.T) {
	var out, errOut strings.Builder
	if code := run(context.Background(), nil, &out, &errOut); code != 2 {
		t.Fatalf("empty selection: exit code %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "nothing selected") {
		t.Fatalf("missing usage hint: %q", errOut.String())
	}
}

func TestFormatBytes(t *testing.T) {
	cases := map[float64]string{
		10:              "10 bytes",
		42.5 * 1024:     "42.5 KB",
		3 * 1024 * 1024: "3.00 MB",
	}
	for in, want := range cases {
		if got := formatBytes(in); got != want {
			t.Errorf("formatBytes(%v) = %q, want %q", in, got, want)
		}
	}
}

func fig8TestConfig() (montecarlo.LossConfig, uint64) {
	w := dram.DDR5().ACTsPerTREFI()
	return montecarlo.LossConfig{
		Entries: 1, Window: w, InsertionProb: 1 / float64(w), Periods: 40_000,
	}, 3
}

func TestRunFig8ResumesFromCheckpointBitIdentical(t *testing.T) {
	args := func(extra ...string) []string {
		return append([]string{"-fig", "8", "-mc-periods", "40000", "-seed", "3", "-workers", "2"}, extra...)
	}
	var plain, plainErr strings.Builder
	if code := run(context.Background(), args(), &plain, &plainErr); code != 0 {
		t.Fatalf("uninterrupted run failed (%d): %s", code, plainErr.String())
	}

	// Fabricate the interrupted run: the same campaign the CLI drives,
	// cancelled after its first completed chunk, checkpointing to the file
	// the CLI will derive from the base path.
	base := filepath.Join(t.TempDir(), "sec.ckpt")
	cfg, seed := fig8TestConfig()
	ctx, cancel := context.WithCancel(context.Background())
	first := true
	_, err := montecarlo.SimulateLossCampaign(ctx, cfg, seed, montecarlo.CampaignOptions{
		Workers:    1,
		Checkpoint: trialrunner.Checkpoint{Path: base + ".fig8"},
		Progress: progressFunc(func() {
			if first {
				first = false
				cancel()
			}
		}),
		Engine: engine.Event, // the CLI's default; keys must match to resume
	})
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("fabricated interrupt: err = %v", err)
	}
	if _, err := os.Stat(base + ".fig8"); err != nil {
		t.Fatalf("no checkpoint kept after interrupt: %v", err)
	}

	var resumed, resumedErr strings.Builder
	if code := run(context.Background(), args("-checkpoint", base), &resumed, &resumedErr); code != 0 {
		t.Fatalf("resumed run failed (%d): %s", code, resumedErr.String())
	}
	if resumed.String() != plain.String() {
		t.Fatal("resumed stdout is not byte-identical to the uninterrupted run")
	}
	if _, err := os.Stat(base + ".fig8"); !os.IsNotExist(err) {
		t.Fatalf("completed run left its checkpoint behind: %v", err)
	}
}

// progressFunc adapts a closure to campaign.Sink for tests: it fires once
// per completed chunk.
type progressFunc func()

func (f progressFunc) AddPeriods(int64)     { f() }
func (f progressFunc) AddActivations(int64) {}
func (f progressFunc) AddMitigations(int64) {}

func TestRunFig8InterruptedExitsWithResumeHint(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // SIGINT before any chunk completes
	base := filepath.Join(t.TempDir(), "sec.ckpt")
	var out, errOut strings.Builder
	code := run(ctx, []string{"-fig", "8", "-mc-periods", "40000", "-checkpoint", base}, &out, &errOut)
	if code != cli.ExitInterrupted {
		t.Fatalf("exit code %d, want %d; stderr: %s", code, cli.ExitInterrupted, errOut.String())
	}
	if !strings.Contains(errOut.String(), "resume") {
		t.Fatalf("no resume hint on stderr: %q", errOut.String())
	}
}

func TestRunFig8ProgressLines(t *testing.T) {
	var out, errOut strings.Builder
	code := run(context.Background(), []string{"-fig", "8", "-mc-periods", "40000",
		"-progress-every", "1ms"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, errOut.String())
	}
	// At minimum the final summary line is emitted when reporting is on.
	if !strings.Contains(errOut.String(), "progress campaign=fig8") {
		t.Fatalf("no progress lines on stderr: %q", errOut.String())
	}
	if !strings.Contains(out.String(), "Fig 8") {
		t.Fatal("figure missing from stdout")
	}
}

// TestRunChaosFlagsSmoke drives the full CLI surface of the resilience
// satellite flags: a seeded -chaos schedule with -trial-retries recovers in
// place and still exits 0 with the same table, and a malformed schedule is
// a usage error before any simulation starts.
func TestRunChaosFlagsSmoke(t *testing.T) {
	var want, errOut strings.Builder
	if code := run(context.Background(),
		[]string{"-fig", "8", "-mc-periods", "200000", "-workers", "2"},
		&want, &errOut); code != 0 {
		t.Fatalf("baseline exit code %d, stderr: %s", code, errOut.String())
	}

	var out strings.Builder
	errOut.Reset()
	code := run(context.Background(),
		[]string{"-fig", "8", "-mc-periods", "200000", "-workers", "2",
			"-selfcheck", "-trial-retries", "1",
			"-chaos", "trial.err:nth=1", "-chaos-seed", "7"},
		&out, &errOut)
	if code != 0 {
		t.Fatalf("chaos run exit code %d, stderr: %s", code, errOut.String())
	}
	if out.String() != want.String() {
		t.Fatal("recovered chaos run prints a different table than the undisturbed run")
	}

	errOut.Reset()
	if code := run(context.Background(),
		[]string{"-fig", "8", "-chaos", "::"}, &out, &errOut); code != 2 {
		t.Fatalf("malformed -chaos exit code %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "-chaos") {
		t.Fatalf("usage error does not name the flag: %q", errOut.String())
	}
}
