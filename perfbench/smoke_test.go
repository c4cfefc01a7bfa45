package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// Tiny scales: every workload path runs in well under a second of work.
var (
	tinyReplay   = replayScale{records: 100_000, setups: 2}
	tinyCampaign = campaignScale{
		lossPeriods: 20_000, attackPatterns: 4, attackSeeds: 1, attackACTs: 5_000,
		ttfPoints: []int{150, 500}, ttfBanks: 2, ttfTrials: 2, ttfHorizon: 500, setups: 2, warmDiv: 2,
	}
	tinyDaemon = daemonScale{
		setups: 2, replayACTs: 20_000, securityPeriods: 20_000, attackPatterns: 4, attackSeeds: 1,
		attackACTs: 5_000, ttfBanks: 2, ttfTRH: 800, ttfHorizon: 500, ttfTrials: 2,
		poll: time.Millisecond, jobTimeout: 30 * time.Second, readyTimeout: 10 * time.Second,
	}
)

// serveBin is a pride-serve built from this checkout for the daemon tests.
var serveBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	serveBin = filepath.Join(dir, "pride-serve")
	if out, err := exec.Command("go", "build", "-o", serveBin, "pride/cmd/pride-serve").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building pride-serve: %v\n%s", err, out)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// benchmarkNames returns the end-to-end and per-layer metric names that
// BENCHMARK.json declares.
func benchmarkNames(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	sort.Strings(endToEnd)
	sort.Strings(perLayer)
	return endToEnd, perLayer
}

type logWriter struct{ t *testing.T }

func (w logWriter) Write(p []byte) (int, error) {
	w.t.Log(strings.TrimSpace(string(p)))
	return len(p), nil
}

func tinyConfig(t *testing.T, workload string, traced bool) config {
	return config{
		workload: workload,
		seed:     7,
		seconds:  500 * time.Millisecond,
		traced:   traced,
		buildDir: t.TempDir(),
		serveBin: serveBin,
		log:      logWriter{t},
	}
}

var tinyRunners = map[string]func(context.Context, config, string) (*outcome, error){
	"replay-trace": func(ctx context.Context, cfg config, dir string) (*outcome, error) {
		return replayWorkload(ctx, cfg, dir, tinyReplay)
	},
	"paper-campaigns": func(ctx context.Context, cfg config, _ string) (*outcome, error) {
		return campaignWorkload(ctx, cfg, tinyCampaign)
	},
	"daemon-mixed": func(ctx context.Context, cfg config, dir string) (*outcome, error) {
		// Long enough for a full block of submissions, so the phase holds
		// cache hits as well as fresh jobs.
		cfg.seconds = 2 * time.Second
		return daemonWorkload(ctx, cfg, dir, tinyDaemon)
	},
}

// TestSmokeWorkloads runs every workload at tiny scale, untraced and
// traced, and checks the result line carries exactly the metrics
// BENCHMARK.json declares, with every check passing.
func TestSmokeWorkloads(t *testing.T) {
	endToEnd, perLayer := benchmarkNames(t)
	for _, traced := range []bool{false, true} {
		for name, runner := range tinyRunners {
			t.Run(fmt.Sprintf("%s/traced=%v", name, traced), func(t *testing.T) {
				cfg := tinyConfig(t, name, traced)
				res, report, err := execute(context.Background(), cfg, runner)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("result %+v", res)
				}
				want := endToEnd
				if traced {
					want = perLayer
				}
				var got []string
				for k, m := range res.Metrics {
					got = append(got, k)
					if m.Unit == "" {
						t.Errorf("metric %s has no unit", k)
					}
				}
				sort.Strings(got)
				if strings.Join(got, ",") != strings.Join(want, ",") {
					t.Errorf("metrics %v, want %v", got, want)
				}
				if _, ok := report["host"]; !ok {
					t.Error("report line lacks the host record")
				}
				if traced {
					if fi, err := os.Stat(spanPath(cfg)); err != nil || fi.Size() == 0 {
						t.Errorf("no spans written: %v", err)
					}
				}
				entries, err := os.ReadDir(cfg.buildDir)
				if err != nil {
					t.Fatal(err)
				}
				for _, e := range entries {
					if strings.HasPrefix(e.Name(), "run-") {
						t.Errorf("run directory %s left behind", e.Name())
					}
				}
			})
		}
	}
}

// pidsIn reads the PIDs a wrapper script recorded.
func pidsIn(t *testing.T, path string) []int {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var pids []int
	for _, f := range strings.Fields(string(b)) {
		pid, err := strconv.Atoi(f)
		if err != nil {
			t.Fatal(err)
		}
		pids = append(pids, pid)
	}
	return pids
}

// assertGone fails unless every process has exited and been reaped.
func assertGone(t *testing.T, pids []int) {
	t.Helper()
	if len(pids) == 0 {
		t.Fatal("no child process was started")
	}
	for _, pid := range pids {
		if err := syscall.Kill(pid, 0); !errors.Is(err, syscall.ESRCH) {
			t.Errorf("child %d still exists (kill 0: %v)", pid, err)
		}
	}
}

// wrapper writes a script that records its PID and then runs cmd.
func wrapper(t *testing.T, cmd string) (script, pidFile string) {
	dir := t.TempDir()
	script, pidFile = filepath.Join(dir, "wrap.sh"), filepath.Join(dir, "pids")
	body := fmt.Sprintf("#!/bin/sh\necho $$ >> %q\nexec %s\n", pidFile, cmd)
	if err := os.WriteFile(script, []byte(body), 0o755); err != nil {
		t.Fatal(err)
	}
	return script, pidFile
}

func TestStartDaemonStopsChildThatNeverListens(t *testing.T) {
	script, pidFile := wrapper(t, "sleep 30")
	start := time.Now()
	d, err := startDaemon(context.Background(), script, t.TempDir(), 1, 1, 300*time.Millisecond)
	if err == nil {
		d.kill()
		t.Fatal("startDaemon succeeded with a child that never listens")
	}
	if time.Since(start) > 10*time.Second {
		t.Errorf("startDaemon took %v to give up", time.Since(start))
	}
	assertGone(t, pidsIn(t, pidFile))
}

func TestDaemonWorkloadStopsChildOnCancel(t *testing.T) {
	script, pidFile := wrapper(t, fmt.Sprintf("%q \"$@\"", serveBin))
	cfg := tinyConfig(t, "daemon-mixed", false)
	cfg.serveBin = script
	cfg.seconds = time.Minute
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	start := time.Now()
	if _, err := daemonWorkload(ctx, cfg, t.TempDir(), tinyDaemon); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want the context's deadline", err)
	}
	if time.Since(start) > 20*time.Second {
		t.Errorf("cancelled workload took %v to return", time.Since(start))
	}
	assertGone(t, pidsIn(t, pidFile))
}
