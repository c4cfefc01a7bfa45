package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"pride/internal/addrmap"
	"pride/internal/dram"
	"pride/internal/engine"
	"pride/internal/montecarlo"
	"pride/internal/obs"
	"pride/internal/patterns"
	"pride/internal/rng"
	"pride/internal/server"
	"pride/internal/sim"
	"pride/internal/system"
	"pride/internal/trialrunner"
	"pride/internal/workload"
)

// daemonScale sizes the daemon-mixed workload.
type daemonScale struct {
	setups int // daemon start-ups per run; setup_s is their median

	replayACTs int // ACTs per generated-workload replay job

	securityPeriods int

	attackPatterns int
	attackSeeds    int
	attackACTs     int

	ttfBanks   int
	ttfTRH     int
	ttfHorizon int
	ttfTrials  int

	poll         time.Duration // client poll interval
	jobTimeout   time.Duration // a job not done by then fails
	readyTimeout time.Duration // start-up limit
}

// daemonDefault gives every job a few hundred milliseconds of work, with
// replay jobs the slowest kind, so the median and the tail of fresh-job
// latency both fall inside the replay jobs' range. The poll interval is a
// small fraction of that.
var daemonDefault = daemonScale{
	setups:          5,
	replayACTs:      2_000_000,
	securityPeriods: 3_000_000,
	attackPatterns:  16,
	attackSeeds:     2,
	attackACTs:      100_000,
	ttfBanks:        4,
	ttfTRH:          800,
	ttfHorizon:      20_000,
	ttfTrials:       8,
	poll:            10 * time.Millisecond,
	jobTimeout:      60 * time.Second,
	readyTimeout:    30 * time.Second,
}

// daemonMapping is the replay jobs' 4-channel, 2-rank, 8-bank server (64
// shards). The spec carries it in Mapping.String() form.
var daemonMapping = addrmap.Mapping{ColumnBits: 6, BankBits: 3, RowBits: 13, RankBits: 1, ChannelBits: 2, XORBankHash: true}

// daemonTRH is the replay jobs' Rowhammer threshold.
const daemonTRH = 500

// jobBlock is the seeded job mix: each block of submissions holds these
// kinds in a seeded order. Fresh replay jobs are three quarters of the
// fresh jobs; "repeat" resubmits a completed replay spec, a cache hit.
var jobBlock = []string{
	"replay", "replay", "replay", "replay", "replay", "replay", "replay", "replay", "replay",
	"security", "attack", "ttfsim", "repeat", "repeat",
}

// replayGenerators are the generators replay jobs rotate through: the
// memory-intensive specs whose row-buffer hit rates lie between 0.6 and
// 0.8, so every replay job generates its records at about the same cost.
var replayGenerators = []string{"lbm", "roms", "cactuBSSN", "bwaves", "wrf"}

// attackSchemes are the schemes attack jobs rotate through: the Fig 15
// schemes the event engine skips ahead on, so attack jobs stay shorter than
// replay jobs.
var attackSchemes = []string{"PrIDE", "PrIDE+RFM40", "PrIDE+RFM16", "PARA-MC", "PARFM"}

// jobSeq hands the seeded job sequence to the clients. Fresh specs depend
// only on the seed and their position in the sequence; a repeat picks one
// of the replay specs completed so far. Replay workloads and attack schemes
// rotate through seeded orders rather than being drawn independently, so
// every run holds the same mix of them.
type jobSeq struct {
	mu      sync.Mutex
	seed    uint64
	sc      daemonScale
	r       *rng.Stream
	names   []string // replay workloads, in seeded order
	schemes []string // attack schemes, in seeded order
	block   []string
	fresh   int
	perKind map[string]int
	repeats []server.Spec
}

func newJobSeq(seed uint64, sc daemonScale) *jobSeq {
	q := &jobSeq{seed: seed, sc: sc, r: rng.Derived(seed, 0), perKind: map[string]int{}}
	for _, i := range q.r.Perm(len(replayGenerators)) {
		q.names = append(q.names, replayGenerators[i])
	}
	for _, i := range q.r.Perm(len(attackSchemes)) {
		q.schemes = append(q.schemes, attackSchemes[i])
	}
	return q
}

// next returns the next submission and whether it repeats an earlier one.
func (q *jobSeq) next() (server.Spec, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.block) == 0 {
		q.block = append([]string(nil), jobBlock...)
		q.r.Shuffle(len(q.block), func(i, j int) { q.block[i], q.block[j] = q.block[j], q.block[i] })
	}
	kind := q.block[0]
	q.block = q.block[1:]
	if kind == "repeat" && len(q.repeats) > 0 {
		return q.repeats[q.r.Intn(len(q.repeats))], true
	}
	if kind == "repeat" {
		kind = "replay"
	}
	q.fresh++
	return q.spec(kind, rng.DeriveSeed(q.seed, uint64(q.fresh))), false
}

// completed adds a finished replay spec to the repeat pool.
func (q *jobSeq) completed(s server.Spec) {
	if s.Kind != "replay" {
		return
	}
	q.mu.Lock()
	q.repeats = append(q.repeats, s)
	q.mu.Unlock()
}

// spec builds a job spec of the given kind. Every field a default would
// fill is set explicitly, so the in-process check builds the same
// configuration without relying on the daemon's defaults.
func (q *jobSeq) spec(kind string, seed uint64) server.Spec {
	sc := q.sc
	k := q.perKind[kind]
	q.perKind[kind]++
	s := server.Spec{Kind: kind, Seed: seed}
	switch kind {
	case "replay":
		s.Replay = &server.ReplaySpec{
			Workload: q.names[k%len(q.names)],
			Mapping:  daemonMapping.String(),
			ACTs:     sc.replayACTs,
			Scheme:   "PrIDE",
			TRH:      daemonTRH,
		}
	case "security":
		w := dram.DDR5().ACTsPerTREFI()
		s.Security = &server.SecuritySpec{Entries: 1, Window: w, InsertionProb: 1 / float64(w), Periods: sc.securityPeriods}
	case "attack":
		s.Attack = &server.AttackSpec{
			Scheme:   q.schemes[k%len(q.schemes)],
			ACTs:     sc.attackACTs,
			Patterns: sc.attackPatterns,
			Seeds:    sc.attackSeeds,
		}
	case "ttfsim":
		s.TTF = &server.TTFSpec{Scheme: "PrIDE", Banks: sc.ttfBanks, TRH: sc.ttfTRH, MaxTREFI: sc.ttfHorizon, Trials: sc.ttfTrials}
	}
	return s
}

// warmupSpecs is one job of each kind, seeded apart from the timed
// sequence so none of them is a cache hit later.
func warmupSpecs(seed uint64, sc daemonScale) []server.Spec {
	q := newJobSeq(rng.DeriveSeed(seed, 1<<32), sc)
	var out []server.Spec
	for i, kind := range []string{"replay", "security", "attack", "ttfsim"} {
		out = append(out, q.spec(kind, rng.DeriveSeed(q.seed, uint64(i))))
	}
	return out
}

// daemon is a running pride-serve child process.
type daemon struct {
	cmd      *exec.Cmd
	base     string
	events   *stateLog
	readDone chan struct{}
	stopOnce sync.Once
	stopErr  error
}

// stateLog timestamps the job state changes the daemon logs to stderr.
type stateLog struct {
	mu   sync.Mutex
	at   map[string]map[string]time.Time // job ID -> state -> first seen
	tail []string                        // last lines, for error reports
}

func (l *stateLog) line(s string, now time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.tail) == 8 {
		l.tail = l.tail[1:]
	}
	l.tail = append(l.tail, s)
	if !strings.HasPrefix(s, "job ") {
		return
	}
	var id, state string
	for _, f := range strings.Fields(s) {
		if v, ok := strings.CutPrefix(f, "id="); ok {
			id = v
		} else if v, ok := strings.CutPrefix(f, "state="); ok {
			state = v
		}
	}
	if id == "" || state == "" {
		return
	}
	m := l.at[id]
	if m == nil {
		m = map[string]time.Time{}
		l.at[id] = m
	}
	if _, seen := m[state]; !seen {
		m[state] = now
	}
}

func (l *stateLog) get(id, state string) (time.Time, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	t, ok := l.at[id][state]
	return t, ok
}

func (l *stateLog) lastLines() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return strings.Join(l.tail, " | ")
}

// startDaemon starts pride-serve on a loopback port with the given data
// directory and waits until /readyz answers 200. On any error the child is
// stopped before returning.
func startDaemon(ctx context.Context, bin, dataDir string, jobs, campaignWorkers int, readyTimeout time.Duration) (*daemon, error) {
	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0",
		"-data", dataDir,
		"-jobs", strconv.Itoa(jobs),
		"-campaign-workers", strconv.Itoa(campaignWorkers),
		"-queue", "64",
	)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, events: &stateLog{at: map[string]map[string]time.Time{}}, readDone: make(chan struct{})}
	addr := make(chan string, 1)
	// The daemon logs a line per job state change; the reader drains every
	// line so the child never blocks on a full pipe.
	go func() {
		defer close(d.readDone)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "pride-serve listening on "); ok {
				a, _, _ := strings.Cut(rest, " ")
				select {
				case addr <- a:
				default:
				}
			}
			d.events.line(line, time.Now())
		}
		io.Copy(io.Discard, stderr)
	}()

	fail := func(err error) (*daemon, error) {
		d.kill()
		return nil, err
	}
	deadline := time.NewTimer(readyTimeout)
	defer deadline.Stop()
	select {
	case a := <-addr:
		d.base = "http://" + a
	case <-d.readDone:
		return fail(fmt.Errorf("pride-serve exited before listening: %s", d.events.lastLines()))
	case <-deadline.C:
		return fail(fmt.Errorf("pride-serve did not report its address within %v", readyTimeout))
	case <-ctx.Done():
		return fail(ctx.Err())
	}
	hc := &http.Client{Timeout: time.Second}
	defer hc.CloseIdleConnections()
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/readyz", nil)
		if err != nil {
			return fail(err)
		}
		if resp, err := hc.Do(req); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case <-deadline.C:
			return fail(fmt.Errorf("pride-serve not ready within %v", readyTimeout))
		case <-ctx.Done():
			return fail(ctx.Err())
		case <-time.After(time.Millisecond):
		}
	}
}

// stop drains the daemon with SIGTERM and waits for it; a daemon that does
// not exit within 10 s is killed. It returns the exit error, if any.
func (d *daemon) stop() error {
	d.stopOnce.Do(func() {
		d.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-d.readDone:
		case <-time.After(10 * time.Second):
			d.cmd.Process.Kill()
			<-d.readDone
		}
		d.stopErr = d.cmd.Wait()
	})
	return d.stopErr
}

// kill ends the daemon at once and waits for it.
func (d *daemon) kill() {
	d.stopOnce.Do(func() {
		d.cmd.Process.Kill()
		<-d.readDone
		d.stopErr = d.cmd.Wait()
	})
}

// pid names the child for /proc lookups.
func (d *daemon) pid() string { return strconv.Itoa(d.cmd.Process.Pid) }

// submission is one client request and what came of it.
type submission struct {
	spec   server.Spec
	repeat bool
	id     string
	start  time.Time     // before the POST
	posted time.Time     // POST answered
	seen   time.Time     // result seen
	cpu    time.Duration // the daemon's CPU time from before the POST until the result was seen
	polls  int
	result json.RawMessage
	err    error
}

func (s *submission) latency() time.Duration { return s.seen.Sub(s.start) }

// jobView is the part of the daemon's job JSON the clients read.
type jobView struct {
	ID     string          `json:"id"`
	State  string          `json:"state"`
	Cached bool            `json:"cached"`
	Error  string          `json:"error"`
	Result json.RawMessage `json:"result"`
}

// submit posts a spec and polls until its result is seen. A non-2xx
// answer, a job that ends failed and a job that outlives the timeout all
// fail the submission. A request that gets no usable answer at all means
// the daemon is gone: that error is returned, and the run cannot continue.
func submit(ctx context.Context, c *http.Client, base string, spec server.Spec, repeat bool, sc daemonScale) (*submission, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	s := &submission{spec: spec, repeat: repeat, start: time.Now()}
	var v jobView
	code, err := doJSON(ctx, c, http.MethodPost, base+"/v1/jobs", body, &v)
	s.posted = time.Now()
	if err != nil {
		return nil, err
	}
	if code/100 != 2 {
		s.err = fmt.Errorf("submit %s: HTTP %d %s", spec.Kind, code, v.Error)
		return s, nil
	}
	s.id = v.ID
	for v.State != server.StateDone {
		switch v.State {
		case server.StateFailed, server.StateResumable:
			s.err = fmt.Errorf("job %s (%s) ended %s: %s", s.id, spec.Kind, v.State, v.Error)
			return s, nil
		}
		if time.Since(s.start) > sc.jobTimeout {
			s.err = fmt.Errorf("job %s (%s) not done after %v", s.id, spec.Kind, sc.jobTimeout)
			return s, nil
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(sc.poll):
		}
		s.polls++
		code, err := doJSON(ctx, c, http.MethodGet, base+"/v1/jobs/"+s.id, nil, &v)
		if err != nil {
			return nil, err
		}
		if code/100 != 2 {
			s.err = fmt.Errorf("poll %s: HTTP %d %s", s.id, code, v.Error)
			return s, nil
		}
	}
	s.seen = time.Now()
	s.result = v.Result
	return s, nil
}

// doJSON makes one request and decodes the JSON answer into v. The body
// of a non-2xx answer may not be JSON; v then stays empty.
func doJSON(ctx context.Context, c *http.Client, method, url string, body []byte, v *jobView) (int, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	resp, err := c.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return 0, ctx.Err()
		}
		return 0, fmt.Errorf("no response from pride-serve: %v", err)
	}
	defer resp.Body.Close()
	*v = jobView{}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil && resp.StatusCode/100 == 2 {
		return resp.StatusCode, fmt.Errorf("decoding pride-serve's answer to %s %s: %v", method, url, err)
	}
	return resp.StatusCode, nil
}

// debugVars is the part of /debug/vars the benchmark reads.
type debugVars struct {
	Campaigns map[string]obs.Snapshot `json:"pride.campaigns"`
	Memstats  struct {
		TotalAlloc    uint64  `json:"TotalAlloc"`
		NumGC         uint32  `json:"NumGC"`
		GCCPUFraction float64 `json:"GCCPUFraction"`
	} `json:"memstats"`
}

func readDebugVars(ctx context.Context, c *http.Client, base string) (debugVars, error) {
	var dv debugVars
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/debug/vars", nil)
	if err != nil {
		return dv, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return dv, err
	}
	defer resp.Body.Close()
	return dv, json.NewDecoder(resp.Body).Decode(&dv)
}

// trialBusy is the serve campaign's summed trial time in seconds, for a
// daemon with one job worker.
func (dv debugVars) trialBusy() float64 {
	s := dv.Campaigns["serve"]
	return s.Utilization * s.ElapsedSeconds
}

// runSubmissions drives the closed loop: one client submits, waits for the
// result, and submits the next until the phase's time is up. With one job
// in the daemon at a time, the daemon's CPU time between a POST and its
// result is that submission's own.
func runSubmissions(ctx context.Context, c *http.Client, d *daemon, q *jobSeq, seconds time.Duration, sc daemonScale) ([]*submission, error) {
	var subs []*submission
	for start := time.Now(); time.Since(start) < seconds; {
		spec, repeat := q.next()
		c0 := childCPU(d.pid())
		s, err := submit(ctx, c, d.base, spec, repeat, sc)
		if err != nil {
			return nil, err
		}
		s.cpu = childCPU(d.pid()) - c0
		if s.err == nil && !repeat {
			q.completed(spec)
		}
		subs = append(subs, s)
	}
	return subs, nil
}

// setUpDaemon starts a daemon on a fresh data directory and runs one
// warm-up job of each kind through it. It runs one job at a time, at one
// campaign worker.
func setUpDaemon(ctx context.Context, cfg config, c *http.Client, dataDir string, sc daemonScale) (*daemon, []*submission, error) {
	d, err := startDaemon(ctx, cfg.serveBin, dataDir, 1, 1, sc.readyTimeout)
	if err != nil {
		return nil, nil, err
	}
	var subs []*submission
	for _, spec := range warmupSpecs(cfg.seed, sc) {
		s, err := submit(ctx, c, d.base, spec, false, sc)
		if err != nil {
			d.kill()
			return nil, nil, fmt.Errorf("warm-up %s job: %w", spec.Kind, err)
		}
		subs = append(subs, s)
	}
	return d, subs, nil
}

func runDaemon(ctx context.Context, cfg config, runDir string) (*outcome, error) {
	return daemonWorkload(ctx, cfg, runDir, daemonDefault)
}

func daemonWorkload(ctx context.Context, cfg config, runDir string, sc daemonScale) (*outcome, error) {
	out := newOutcome()
	c := &http.Client{}
	defer c.CloseIdleConnections()

	// Set-up: start a daemon on a fresh data directory, wait for /readyz
	// and run the warm-up jobs; repeat, keeping the last daemon. A set-up's
	// CPU time is all the new daemon has used by then.
	var setups, setupWalls []float64
	var warm []*submission
	var d *daemon
	for i := 0; i < sc.setups; i++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, fmt.Errorf("stopping set-up daemon: %w", err)
			}
		}
		s0 := time.Now()
		var w []*submission
		var err error
		d, w, err = setUpDaemon(ctx, cfg, c, filepath.Join(runDir, fmt.Sprintf("data-%d", i)), sc)
		if err != nil {
			return nil, err
		}
		setupWalls = append(setupWalls, time.Since(s0).Seconds())
		setups = append(setups, childCPU(d.pid()).Seconds())
		warm = append(warm, w...)
	}
	defer d.kill()

	q := newJobSeq(cfg.seed, sc)
	for _, s := range warm {
		if s.err == nil {
			q.completed(s.spec)
		}
	}
	dv0, err := readDebugVars(ctx, c, d.base)
	if err != nil {
		return nil, err
	}
	start, cpu0 := time.Now(), childCPU(d.pid())
	subs, err := runSubmissions(ctx, c, d, q, cfg.seconds, sc)
	if err != nil {
		return nil, err
	}
	elapsed, phaseCPU := time.Since(start), childCPU(d.pid())-cpu0
	dv1, err := readDebugVars(ctx, c, d.base)
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB(d.pid())
	if err != nil {
		return nil, err
	}
	if err := d.stop(); err != nil {
		return nil, fmt.Errorf("pride-serve did not drain cleanly: %w", err)
	}

	all := append(warm, subs...)
	if err := checkSubmissions(ctx, all, runtime.NumCPU()); err != nil {
		return nil, err
	}
	for _, s := range all {
		out.record(cfg.log, s.err)
	}

	var fresh, hits, freshCPU, hitCPU []float64
	kinds := map[string][]float64{}
	polls := 0
	for _, s := range subs {
		if s.err != nil {
			continue
		}
		ms := float64(s.latency()) / 1e6
		if s.repeat {
			hits = append(hits, ms)
			hitCPU = append(hitCPU, s.cpu.Seconds())
			continue
		}
		fresh = append(fresh, ms)
		freshCPU = append(freshCPU, s.cpu.Seconds())
		kinds[s.spec.Kind] = append(kinds[s.spec.Kind], ms)
		polls += s.polls
	}
	if len(fresh) == 0 || len(hits) == 0 {
		return nil, fmt.Errorf("the timed phase completed %d fresh jobs and %d cache hits; both are needed", len(fresh), len(hits))
	}
	jobsPerS := float64(len(fresh)) / elapsed.Seconds()
	p50 := median(fresh)
	det := out.detail
	det.set("jobs_per_s", jobsPerS, "job/s")
	det.set("job_p50_ms", p50, "ms")
	det.set("hit_p50_ms", median(hits), "ms")
	det.set("hit_cpu_ms", median(hitCPU)*1e3, "ms")
	det.set("setup_wall_s", median(setupWalls), "s")
	if t, ok := tail(fresh); ok {
		det.set(fmt.Sprintf("job_p%d_ms", t.Percentile), t.Value, "ms")
		out.info["job_tail"] = t
	} else {
		out.info["job_tail"] = fmt.Sprintf("too few fresh jobs (%d) for a tail", len(fresh))
	}
	perKind := map[string]any{}
	for k, xs := range kinds {
		perKind[k] = map[string]any{"jobs": len(xs), "p50_ms": median(xs)}
	}
	out.info["fresh_jobs"] = len(fresh)
	out.info["cache_hits"] = len(hits)
	out.info["per_kind"] = perKind
	out.info["daemon_cpu_s"] = phaseCPU.Seconds()
	out.info["op_cpu_quartiles_ms"] = quartilesMS(freshCPU)
	out.info["daemon"] = map[string]any{"jobs": 1, "campaign_workers": 1, "clients": 1, "poll_ms": sc.poll.Milliseconds()}

	if !cfg.traced {
		out.result.setEndToEnd(freshCPU, len(fresh), phaseCPU, setups, rss)
		return out, nil
	}

	// Per-layer split of each fresh job from the client's timestamps and the
	// daemon's state-change log.
	tr := newTracer()
	split0 := time.Now()
	var submitMS, queueMS, coverage []float64
	runMS := map[string][]float64{}
	for _, s := range subs {
		if s.err != nil || s.repeat {
			continue
		}
		running, ok1 := d.events.get(s.id, server.StateRunning)
		done, ok2 := d.events.get(s.id, server.StateDone)
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("job %s: its running and done states are missing from the daemon log", s.id)
		}
		runFrom := running
		if runFrom.Before(s.posted) {
			runFrom = s.posted // started before the 202 reached the client
		}
		if done.After(s.seen) {
			done = s.seen // a poll saw the state before its log line arrived
		}
		sub := s.posted.Sub(s.start)
		queue := runFrom.Sub(s.posted)
		run := done.Sub(runFrom)
		submitMS = append(submitMS, float64(sub)/1e6)
		queueMS = append(queueMS, float64(queue)/1e6)
		runMS[s.spec.Kind] = append(runMS[s.spec.Kind], float64(run)/1e6)
		coverage = append(coverage, float64(sub+queue+run)/float64(s.latency()))
		root := tr.newID()
		tr.record(root, "job."+s.spec.Kind, 0, s.id, -1, s.start, s.seen)
		tr.record(0, "server.submit", root, s.id, -1, s.start, s.posted)
		tr.record(0, "server.queue", root, s.id, -1, s.posted, runFrom)
		tr.record(0, "server.run."+s.spec.Kind, root, s.id, -1, runFrom, done)
		tr.record(0, "client.poll_lag", root, s.id, -1, done, s.seen)
	}
	if len(coverage) == 0 {
		return nil, errors.New("no fresh job could be split into layers")
	}
	// The split is made from timestamps after the timed phase, so tracing
	// adds nothing to the measured jobs; its overhead is what recording the
	// spans would cost inside the phase.
	overhead := time.Since(split0).Seconds() / elapsed.Seconds()
	mean := func(xs []float64) float64 {
		t := 0.0
		for _, x := range xs {
			t += x
		}
		return t / float64(len(xs))
	}
	det.set("server.submit_ms", median(submitMS), "ms")
	det.set("server.queue_ms", mean(queueMS), "ms")
	for k, xs := range runMS {
		det.set("server.run."+k+"_ms", median(xs), "ms")
	}
	det.set("server.polls_per_job", float64(polls)/float64(len(fresh)), "count")
	s0, s1 := dv0.Campaigns["serve"], dv1.Campaigns["serve"]
	det.set("server.cache_hits", float64(s1.CacheHits-s0.CacheHits), "count")
	det.set("server.job_retries", float64(s1.JobRetries-s0.JobRetries), "count")
	busy := dv1.trialBusy() - dv0.trialBusy()
	det.set("trialrunner.trial_busy_s", busy, "s")
	det.set("trialrunner.checkpoint_retries", float64(s1.CheckpointRetries-s0.CheckpointRetries), "count")
	cov := median(coverage)
	out.info["accounting"] = accounting("server.submit_ms + server.queue_ms + server.run.<kind>_ms", "fresh job latency", coverage, daemonBand)
	out.record(cfg.log, bandErr("daemon", cov, daemonBand))

	r := out.result
	jobs := float64(len(fresh))
	uptime := func(dv debugVars) float64 { return dv.Campaigns["serve"].ElapsedSeconds }
	r.set("runtime.alloc_mb", float64(dv1.Memstats.TotalAlloc-dv0.Memstats.TotalAlloc)/1e6/jobs, "MB")
	// GCCPUFraction is a share of all CPU time since the daemon started.
	gc := func(dv debugVars) float64 { return dv.Memstats.GCCPUFraction * uptime(dv) * float64(runtime.NumCPU()) }
	r.set("runtime.gc_cpu_s", (gc(dv1)-gc(dv0))/jobs, "s")
	r.set("runtime.gc_cycles", float64(dv1.Memstats.NumGC-dv0.Memstats.NumGC)/jobs, "count")
	r.set("trialrunner.util", busy/elapsed.Seconds(), "ratio")
	r.set("layer.coverage", cov, "ratio")
	r.set("tracing.overhead", overhead, "ratio")
	out.info["spans"] = spanPath(cfg)
	return out, tr.write(spanPath(cfg))
}

// checkSubmissions checks every fresh job against a direct in-process call
// of the same campaign, and every cache hit byte for byte against the first
// result of its spec. Checks skip submissions that already failed, so each
// counts as failed once.
func checkSubmissions(ctx context.Context, all []*submission, workers int) error {
	first := map[string]json.RawMessage{}
	var specs []server.Spec
	for _, s := range all {
		if s.err != nil || s.repeat {
			continue
		}
		if key := specKey(s.spec); first[key] == nil {
			first[key] = s.result
			specs = append(specs, s.spec)
		}
	}
	type ref struct {
		raw json.RawMessage
		err error
	}
	// One campaign worker per reference and one reference per CPU keeps
	// every CPU busy, including during the single-threaded trace demux.
	refs, err := trialrunner.MapOpts(ctx, len(specs), func(i int) ref {
		raw, err := directResult(ctx, specs[i], 1)
		return ref{raw, err}
	}, nil, trialrunner.Options{Workers: workers})
	if err != nil {
		return err
	}
	direct := map[string]json.RawMessage{}
	for i, r := range refs {
		if r.err != nil {
			return fmt.Errorf("in-process %s reference: %w", specs[i].Kind, r.err)
		}
		direct[specKey(specs[i])] = r.raw
	}
	for _, s := range all {
		if s.err != nil {
			continue
		}
		key := specKey(s.spec)
		if s.repeat {
			if !bytes.Equal(s.result, first[key]) {
				s.err = fmt.Errorf("cache hit for job %s differs byte for byte from its first result", s.id)
			}
			continue
		}
		s.err = sameJSON(s.result, direct[key], s.spec.Kind)
	}
	return nil
}

// daemonBand is the share of each fresh job's latency that submit, queue
// and run must cover together; the rest is the wait between the daemon
// finishing and the client's next poll.
var daemonBand = [2]float64{0.9, 1.0}

// specKey identifies a spec by its JSON encoding.
func specKey(s server.Spec) string {
	b, _ := json.Marshal(s)
	return string(b)
}

// sameJSON compares a daemon result with the in-process reference after
// decoding both into the kind's result type.
func sameJSON(got, want json.RawMessage, kind string) error {
	g, err := canonical(got, kind)
	if err != nil {
		return err
	}
	w, err := canonical(want, kind)
	if err != nil {
		return err
	}
	if !bytes.Equal(g, w) {
		return fmt.Errorf("%s job result differs from the in-process campaign:\n got %s\nwant %s", kind, g, w)
	}
	return nil
}

func canonical(raw json.RawMessage, kind string) ([]byte, error) {
	var v any
	switch kind {
	case "security":
		v = new(server.SecurityResult)
	case "attack":
		v = new(sim.AttackResult)
	case "ttfsim":
		v = new(server.TTFResult)
	case "replay":
		v = new(server.ReplayResult)
	default:
		return nil, fmt.Errorf("unknown job kind %q", kind)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return nil, fmt.Errorf("decoding %s result: %v", kind, err)
	}
	return json.Marshal(v)
}

// directResult runs a job's campaign in-process through the same public
// campaign functions the daemon calls and returns its result as JSON.
func directResult(ctx context.Context, s server.Spec, workers int) (json.RawMessage, error) {
	var res any
	switch s.Kind {
	case "security":
		sub := s.Security
		cfg := montecarlo.LossConfig{Entries: sub.Entries, Window: sub.Window, InsertionProb: sub.InsertionProb, Periods: sub.Periods}
		r, err := montecarlo.SimulateLossCampaign(ctx, cfg, s.Seed, montecarlo.CampaignOptions{Workers: workers, Engine: engine.Event})
		if err != nil {
			return nil, err
		}
		res = server.SecurityResult{WorstLoss: r.WorstLoss(), Detail: r}
	case "attack":
		sub := s.Attack
		scheme, err := sim.SchemeByName(sub.Scheme)
		if err != nil {
			return nil, err
		}
		p := dram.DDR5()
		p.RowsPerBank, p.RowBits = 8192, 13
		cfg := sim.AttackConfig{Params: p, ACTs: sub.ACTs, TRH: sub.TRH}
		suite := patterns.Fig15Suite(p.RowsPerBank, sub.Patterns, s.Seed)
		r, err := sim.MaxDisturbanceOverSuiteCampaign(ctx, cfg, scheme, suite, sub.Seeds, s.Seed, sim.CampaignOptions{Workers: workers, Engine: engine.Event})
		if err != nil {
			return nil, err
		}
		res = r
	case "ttfsim":
		sub := s.TTF
		scheme, err := sim.SchemeByName(sub.Scheme)
		if err != nil {
			return nil, err
		}
		p := dram.DDR5()
		p.RowsPerBank, p.RowBits = 4096, 12
		cfg := system.Config{Params: p, Banks: sub.Banks, TRH: sub.TRH, MaxTREFI: sub.MaxTREFI}
		mean, failed, err := system.MeasureMTTFCampaign(ctx, cfg, scheme, sub.Trials, s.Seed, system.CampaignOptions{Workers: workers, Engine: engine.Event})
		if err != nil {
			return nil, err
		}
		res = server.TTFResult{MeanSeconds: mean, Failed: failed, Trials: sub.Trials}
	case "replay":
		sub := s.Replay
		scheme, err := sim.SchemeByName(sub.Scheme)
		if err != nil {
			return nil, err
		}
		m, err := addrmap.ParseMapping(sub.Mapping)
		if err != nil {
			return nil, err
		}
		var spec workload.Spec
		for _, w := range workload.All() {
			if w.Name == sub.Workload {
				spec = w
			}
		}
		topo, err := system.NewTopology(system.TopologyConfig{Params: dram.DDR5(), Mapping: m, Scheme: scheme, TRH: sub.TRH, Seed: s.Seed})
		if err != nil {
			return nil, err
		}
		r, err := topo.ReplayCampaign(ctx, workload.NewAddrSource(spec, m, sub.ACTs, s.Seed), system.ReplayOptions{Workers: workers})
		if err != nil {
			return nil, err
		}
		res = server.ReplayResult{Records: r.Records, CRC32: fmt.Sprintf("%08x", r.CRC32), TotalFlips: r.TotalFlips(), PerChannel: r.PerChannel()}
	default:
		return nil, fmt.Errorf("unknown job kind %q", s.Kind)
	}
	return json.Marshal(res)
}
