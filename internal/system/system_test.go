package system

import (
	"context"
	"math"
	"testing"
	"time"

	"pride/internal/analytic"
	"pride/internal/dram"
	"pride/internal/engine"
	"pride/internal/sim"
)

func sysParams() dram.Params {
	p := dram.DDR5()
	p.RowsPerBank = 1024
	p.RowBits = 10
	return p
}

func TestFailsQuicklyAtTinyThreshold(t *testing.T) {
	cfg := Config{Params: sysParams(), Banks: 2, TRH: 100, MaxTREFI: 5000}
	res := Run(cfg, sim.PrIDEScheme(), 1, engine.Exact)
	if !res.Failed {
		t.Fatal("no failure at TRH=100 within 5000 tREFI; tracker is suspiciously perfect")
	}
	if res.TimeToFail <= 0 || res.TimeToFail > time.Duration(cfg.MaxTREFI)*cfg.Params.TREFI {
		t.Fatalf("implausible time-to-fail %v", res.TimeToFail)
	}
}

func TestSurvivesAtHighThreshold(t *testing.T) {
	// At the victim-disturbance equivalent of TRH-D=2000 (threshold 4000),
	// PrIDE's analytic TTF is thousands of years; a 20K-tREFI horizon
	// (~78ms) must see nothing.
	cfg := Config{Params: sysParams(), Banks: 2, TRH: 4000, MaxTREFI: 20_000}
	res := Run(cfg, sim.PrIDEScheme(), 2, engine.Exact)
	if res.Failed {
		t.Fatalf("failure at TRH=4000 after %v — analytic TTF is ~10^3 years", res.TimeToFail)
	}
}

func TestMeasuredMTTFMatchesAnalyticOrder(t *testing.T) {
	// End-to-end validation of the Table IX chain: at a victim threshold
	// of 500 (device TRH-D = 250), failures are frequent enough to
	// measure, and the measured system MTTF must agree with the analytic
	// model within an order of magnitude (the analytic model is
	// deliberately pessimistic, so the measured MTTF should be >= ~0.3x).
	p := sysParams()
	const banks = 4
	const victimTRH = 500 // device TRH-D = 250
	cfg := Config{Params: p, Banks: banks, TRH: victimTRH, MaxTREFI: 200_000}
	mean, failed := mttfCampaign(t, cfg, sim.PrIDEScheme(), 12, 3, 1)
	if failed < 8 {
		t.Fatalf("only %d/12 trials failed; cannot estimate MTTF", failed)
	}
	r := analytic.EvaluateScheme(analytic.SchemePrIDE, p, analytic.DefaultTargetTTFYears)
	// chances = total victim disturbances = victimTRH (2 * TRH-D).
	predicted := analytic.SystemTTFYears(r, float64(victimTRH), banks) * analytic.SecondsPerYear
	ratio := mean / predicted

	// The analytic model is a GUARANTEE, i.e. a lower bound on the true
	// TTF (worst insertion position, worst start occupancy, maximum
	// tardiness for every insertion — Section IV-C's deliberate
	// pessimism). The measured MTTF must therefore sit at or above the
	// prediction...
	if math.IsNaN(ratio) || ratio < 1 {
		t.Fatalf("measured MTTF %.4gs BELOW the analytic guarantee %.4gs — the bound is violated",
			mean, predicted)
	}
	// ...and in this tiny-threshold regime (chances ~ 1.6x the maximum
	// tardiness) the pessimism factor is large but bounded: the N*W
	// tardiness term and the worst-position loss each cost ~e^2..e^3.
	// Beyond ~10^3 would indicate the simulator and the model have
	// diverged structurally.
	if ratio > 1000 {
		t.Fatalf("measured MTTF %.4gs is %.0fx the analytic %.4gs — model and simulator diverged",
			mean, ratio, predicted)
	}
}

func TestMoreBanksFailSooner(t *testing.T) {
	p := sysParams()
	one, failed1 := mttfCampaign(t, Config{Params: p, Banks: 1, TRH: 300, MaxTREFI: 100_000}, sim.PrIDEScheme(), 10, 5, 1)
	many, failedN := mttfCampaign(t, Config{Params: p, Banks: 8, TRH: 300, MaxTREFI: 100_000}, sim.PrIDEScheme(), 10, 5, 1)
	if failed1 < 8 || failedN < 8 {
		t.Fatalf("insufficient failures: %d, %d", failed1, failedN)
	}
	if many >= one {
		t.Fatalf("8-bank MTTF %.4gs not below 1-bank MTTF %.4gs", many, one)
	}
}

func TestRFMExtendsTTF(t *testing.T) {
	p := sysParams()
	cfg := Config{Params: p, Banks: 2, TRH: 400, MaxTREFI: 60_000}
	base, bFailed := mttfCampaign(t, cfg, sim.PrIDEScheme(), 8, 7, 1)
	_, rFailed := mttfCampaign(t, cfg, sim.PrIDERFMScheme(16), 8, 7, 1)
	if bFailed < 6 {
		t.Fatalf("baseline PrIDE failed only %d/8 times at TRH=400", bFailed)
	}
	// RFM16's analytic TTF at device TRH-D=200-equivalent... at victim
	// threshold 400 (TRH-D=200) RFM16 still fails in seconds, but far
	// more slowly than plain PrIDE; within this horizon it should fail
	// rarely or not at all.
	if rFailed >= bFailed {
		t.Fatalf("RFM16 failed as often as plain PrIDE (%d vs %d)", rFailed, bFailed)
	}
	_ = base
}

func TestRunDeterministic(t *testing.T) {
	cfg := Config{Params: sysParams(), Banks: 2, TRH: 150, MaxTREFI: 20_000}
	a := Run(cfg, sim.PrIDEScheme(), 42, engine.Exact)
	b := Run(cfg, sim.PrIDEScheme(), 42, engine.Exact)
	if a != b {
		t.Fatalf("identical runs differ: %+v vs %+v", a, b)
	}
}

func TestConfigValidation(t *testing.T) {
	good := Config{Params: sysParams(), Banks: 1, TRH: 100, MaxTREFI: 10}
	if err := good.Validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	bad := []Config{
		{Params: sysParams(), Banks: 0, TRH: 100, MaxTREFI: 10},
		{Params: sysParams(), Banks: 1, TRH: 1, MaxTREFI: 10},
		{Params: sysParams(), Banks: 1, TRH: 100, MaxTREFI: 0},
		{Params: dram.Params{}, Banks: 1, TRH: 100, MaxTREFI: 10},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MeasureMTTFCampaign with 0 trials did not panic")
		}
	}()
	MeasureMTTFCampaign(context.Background(), good, sim.PrIDEScheme(), 0, 1, CampaignOptions{Workers: 1})
}
