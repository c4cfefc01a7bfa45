// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload per invocation, checks every simulated result it produces, and
// prints the workload's metrics as one JSON object on the last line of
// standard output:
//
//	perfbench -workload replay-trace -seed 1 -seconds 25 -trace 0
//
// Workloads:
//
//	replay-trace     one seeded binary ACT trace replayed by
//	                 system.Topology.ReplayCampaign at nproc workers
//	paper-campaigns  the Fig 8 security, Fig 15 attack and Table IX TTF
//	                 campaigns on the event engine at one worker
//	daemon-mixed     pride-serve as a child process driven by one
//	                 closed-loop client with a seeded job mix
//
// With -trace 0 the result holds the end-to-end metrics; with -trace 1 a
// separate traced run records spans around each layer call and the result
// holds the per-layer metrics. See README.md for every metric's definition.
// run.sh builds this command and pride-serve from the checkout first.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"syscall"
	"time"
)

// defaultSeed is the seed whose simulated results are pinned by committed
// digests.
const defaultSeed = 1

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	seconds  time.Duration
	traced   bool
	buildDir string // scratch root for run directories and spans
	serveBin string // pride-serve binary for daemon-mixed
	log      io.Writer
}

// outcome is what a workload reports. Every operation the workload
// attempts is counted once in attempted, and once in failed if any of its
// checks failed.
type outcome struct {
	attempted int
	failed    int
	// result holds the metrics of the final result line: the end-to-end
	// set when untraced, the per-layer set when traced.
	result metrics
	// detail holds the workload's own named metrics, printed on the report
	// line before the result.
	detail metrics
	// info holds other facts for the report line: sample counts, tail
	// percentile, digests, accounting bands.
	info map[string]any
}

func newOutcome() *outcome {
	return &outcome{result: metrics{}, detail: metrics{}, info: map[string]any{}}
}

// record counts one operation, and one failure when err is non-nil.
func (o *outcome) record(log io.Writer, err error) {
	o.attempted++
	if err != nil {
		o.failed++
		fmt.Fprintf(log, "perfbench: FAILED: %v\n", err)
	}
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(ctx context.Context, cfg config, runDir string) (*outcome, error){
	"replay-trace":    runReplay,
	"paper-campaigns": runCampaigns,
	"daemon-mixed":    runDaemon,
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "workload to run: replay-trace, paper-campaigns or daemon-mixed")
		seed     = fs.Uint64("seed", defaultSeed, "workload seed; the trace and every job spec derive from it")
		seconds  = fs.Float64("seconds", 25, "length of the timed phase in seconds")
		traced   = fs.Int("trace", 0, "1 runs the traced run for the per-layer metrics, 0 the untraced run for the end-to-end metrics")
		buildDir = fs.String("build", ".bench_build", "scratch directory for run data and span files")
		serveBin = fs.String("serve", "", "pride-serve binary (default <build>/bin/pride-serve)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runner, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown -workload %q (want replay-trace, paper-campaigns or daemon-mixed)\n", *workload)
		return 2
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: -seconds must be positive")
		return 2
	}
	cfg := config{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		traced:   *traced == 1,
		buildDir: *buildDir,
		serveBin: *serveBin,
		log:      stderr,
	}
	if cfg.serveBin == "" {
		cfg.serveBin = filepath.Join(cfg.buildDir, "bin", "pride-serve")
	}
	res, report, err := execute(ctx, cfg, runner)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]any{"report": report}); err != nil {
		return 1
	}
	if err := enc.Encode(res); err != nil {
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// result is the final output line.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// execute runs one workload in a fresh run directory and assembles the
// result line and the report line that precedes it.
func execute(ctx context.Context, cfg config, runner func(context.Context, config, string) (*outcome, error)) (result, map[string]any, error) {
	if err := os.MkdirAll(cfg.buildDir, 0o777); err != nil {
		return result{}, nil, err
	}
	runDir, err := os.MkdirTemp(cfg.buildDir, "run-"+cfg.workload+"-")
	if err != nil {
		return result{}, nil, err
	}
	defer os.RemoveAll(runDir)
	host := readHost(runDir)

	cpu0, self0 := readCPUStat(), selfCPU()
	out, err := runner(ctx, cfg, runDir)
	if err != nil {
		return result{}, nil, err
	}
	cpu1, self1 := readCPUStat(), selfCPU()
	if out.attempted < 1 {
		return result{}, nil, errors.New("no operation was attempted")
	}
	if err := checkNames(out.result); err != nil {
		return result{}, nil, err
	}
	if !cfg.traced {
		// A clock that could not be read shows as a zero.
		for name, m := range out.result {
			if !(m.Value > 0) || math.IsInf(m.Value, 0) {
				return result{}, nil, fmt.Errorf("end-to-end metric %s is %v; it must be a positive number", name, m.Value)
			}
		}
	}
	if err := checkNames(out.detail); err != nil {
		return result{}, nil, err
	}
	mode := "end-to-end"
	if cfg.traced {
		mode = "traced"
	}
	report := map[string]any{
		"workload":    cfg.workload,
		"seed":        strconv.FormatUint(cfg.seed, 10),
		"mode":        mode,
		"host":        host,
		"steal_share": stealShare(cpu0, cpu1),
		"bench_cpu_s": (self1 - self0).Seconds(),
		"metrics":     out.detail,
	}
	for k, v := range out.info {
		report[k] = v
	}
	return result{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   out.result,
	}, report, nil
}
