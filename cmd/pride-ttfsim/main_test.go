package main

import (
	"context"
	"path/filepath"
	"strings"
	"testing"

	"pride/internal/cli"
)

// shortArgs shrinks the experiment so a smoke run finishes in test time
// while still measuring at least one failing point.
func shortArgs(extra ...string) []string {
	base := []string{"-trhd", "150", "-banks", "2", "-trials", "3", "-horizon", "30000"}
	return append(base, extra...)
}

func TestRunProducesMeasurementTable(t *testing.T) {
	var out, errOut strings.Builder
	if code := run(context.Background(), shortArgs("-workers", "2"), &out, &errOut); code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, errOut.String())
	}
	for _, want := range []string{"Measured vs analytic system TTF", "PrIDE", "150"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunSchemeMINT(t *testing.T) {
	var out, errOut strings.Builder
	if code := run(context.Background(), shortArgs("-scheme", "MINT", "-workers", "2"), &out, &errOut); code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "MINT") {
		t.Fatalf("output missing the MINT scheme name:\n%s", out.String())
	}
}

// TestRunClaimsSoundnessOnlyWhenEveryMarginExceedsOne: MINT mitigates at
// level 1 only, so the rows two out from an aggressor, disturbed by every
// refresh of the aggressor's outer victim, fail long before the analytic
// guarantee at TRH-D 500. The closing lines must then name that point
// instead of claiming the model is sound everywhere.
func TestRunClaimsSoundnessOnlyWhenEveryMarginExceedsOne(t *testing.T) {
	var out, errOut strings.Builder
	args := []string{"-scheme", "MINT", "-trhd", "500", "-banks", "2", "-trials", "2", "-horizon", "5000", "-workers", "1"}
	if code := run(context.Background(), args, &out, &errOut); code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "| 500          | 2/2") {
		t.Fatalf("MINT did not fail both trials at TRH-D 500:\n%s", out.String())
	}
	if strings.Contains(out.String(), "Margin > 1 everywhere") {
		t.Errorf("soundness claimed under a margin below 1:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "Margin <= 1 at TRH-D 500:") {
		t.Errorf("closing lines do not name the TRH-D 500 point:\n%s", out.String())
	}
}

func TestRunRejectsUnmeasurableSchemes(t *testing.T) {
	// MOAT never fails below ATO, so a TTF measurement is rejected with an
	// explanation rather than silently reporting an infinite MTTF.
	var out, errOut strings.Builder
	if code := run(context.Background(), shortArgs("-scheme", "MOAT"), &out, &errOut); code != 2 {
		t.Fatalf("-scheme MOAT: exit code %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "deterministic") {
		t.Fatalf("-scheme MOAT: no explanation on stderr: %q", errOut.String())
	}
	if code := run(context.Background(), shortArgs("-scheme", "bogus"), &out, &errOut); code != 2 {
		t.Fatalf("-scheme bogus: exit code %d, want 2", code)
	}
	if code := run(context.Background(), shortArgs("-scheme", "MINT", "-rfm", "16"), &out, &errOut); code != 2 {
		t.Fatalf("-scheme MINT -rfm 16: exit code %d, want 2", code)
	}
}

func TestRunWorkerCountInvariant(t *testing.T) {
	// The whole report must be byte-identical across -workers values.
	render := func(workers string) string {
		var out, errOut strings.Builder
		if code := run(context.Background(), shortArgs("-workers", workers), &out, &errOut); code != 0 {
			t.Fatalf("workers=%s: exit code %d, stderr: %s", workers, code, errOut.String())
		}
		return out.String()
	}
	want := render("1")
	for _, workers := range []string{"2", "4"} {
		if got := render(workers); got != want {
			t.Fatalf("-workers %s output differs from -workers 1:\n%s\nvs\n%s", workers, got, want)
		}
	}
}

func TestRunRejectsBadWorkers(t *testing.T) {
	for _, bad := range []string{"0", "-2"} {
		var out, errOut strings.Builder
		if code := run(context.Background(), shortArgs("-workers", bad), &out, &errOut); code != 2 {
			t.Errorf("-workers %s: exit code %d, want 2", bad, code)
		}
		if !strings.Contains(errOut.String(), "workers") {
			t.Errorf("-workers %s: no diagnostic on stderr: %q", bad, errOut.String())
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	cases := map[string][]string{
		"bad rfm":      shortArgs("-rfm", "7"),
		"zero trials":  {"-trhd", "150", "-trials", "0"},
		"unknown flag": {"-definitely-not-a-flag"},
	}
	for name, args := range cases {
		var out, errOut strings.Builder
		if code := run(context.Background(), args, &out, &errOut); code != 2 {
			t.Errorf("%s: exit code %d, want 2", name, code)
		}
	}
}

func TestRunCSVMode(t *testing.T) {
	var out, errOut strings.Builder
	if code := run(context.Background(), shortArgs("-workers", "2", "-csv"), &out, &errOut); code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), ",") {
		t.Fatalf("CSV mode produced no comma-separated output:\n%s", out.String())
	}
}

func TestRunInterruptedExitsWithResumeHint(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // SIGINT before any trial completes
	base := filepath.Join(t.TempDir(), "ttf.ckpt")
	var out, errOut strings.Builder
	code := run(ctx, shortArgs("-checkpoint", base), &out, &errOut)
	if code != cli.ExitInterrupted {
		t.Fatalf("exit code %d, want %d; stderr: %s", code, cli.ExitInterrupted, errOut.String())
	}
	if !strings.Contains(errOut.String(), "resume") {
		t.Fatalf("no resume hint on stderr: %q", errOut.String())
	}
}

func TestRunCheckpointedMatchesPlain(t *testing.T) {
	var plain, plainErr strings.Builder
	if code := run(context.Background(), shortArgs("-workers", "2"), &plain, &plainErr); code != 0 {
		t.Fatalf("plain run failed: %d", code)
	}
	base := filepath.Join(t.TempDir(), "ttf.ckpt")
	var ckpt, ckptErr strings.Builder
	if code := run(context.Background(), shortArgs("-workers", "3", "-checkpoint", base), &ckpt, &ckptErr); code != 0 {
		t.Fatalf("checkpointed run failed: %d", code)
	}
	if ckpt.String() != plain.String() {
		t.Fatal("checkpointed stdout differs from plain run")
	}
}
