package baseline

import (
	"testing"

	"pride/internal/rng"
	"pride/internal/tracker"
)

func TestStorageBitsHandComputed(t *testing.T) {
	// Hand-computed register budgets for every scheme, pinning the
	// counter-width accounting (counters representing 0..threshold need
	// ceil(log2(threshold+1)) bits, not one more).
	r := func() *rng.Stream { return rng.New(1) }
	cases := []struct {
		name string
		tr   tracker.Tracker
		want int
	}{
		// PARA keeps no state at all.
		{"PARA", NewPARA(0.01, r()), 0},
		// W-entry epoch buffer of row addresses.
		{"PARFM", NewPARFM(79, 17, r()), 79 * 17},
		// 4 ranked row entries.
		{"PRoHIT", NewPRoHIT(4, 17, 1.0/16, 0.5, r()), 4 * 17},
		// 4 entries of row + 16-bit count + valid.
		{"DSAC", NewDSAC(4, 17, r()), 4 * (17 + 16 + 1)},
		{"TRR", NewTRR(4, 17), 4 * (17 + 16 + 1)},
		// 8 entries of (17-bit row + 6-bit counter for 0..32 + valid),
		// plus the 6-bit spillover counter.
		{"Graphene", NewGraphene(8, 32, 17), 8*(17+6+1) + 6},
	}
	for _, c := range cases {
		if got := c.tr.StorageBits(); got != c.want {
			t.Errorf("%s.StorageBits() = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestDrainImmediateReusesBuffer(t *testing.T) {
	// The drain contract: after a drain, the next activations reuse the
	// returned slice's backing array instead of allocating a fresh one.
	p := NewPARA(1, rng.New(1)) // p=1: every activation queues a mitigation
	p.OnActivate(7)
	first := p.DrainImmediate()
	if len(first) != 1 || first[0].Row != 7 {
		t.Fatalf("unexpected first drain %v", first)
	}
	p.OnActivate(8)
	second := p.DrainImmediate()
	if len(second) != 1 || second[0].Row != 8 {
		t.Fatalf("unexpected second drain %v", second)
	}
	if &first[0] != &second[0] {
		t.Fatal("drain buffer was not reused across epochs")
	}
}
